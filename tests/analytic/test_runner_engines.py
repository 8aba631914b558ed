"""Engine wiring through run_config / run_sweep: cache tagging, the
auto cross-validation path, fault guard-rails, the advise override,
and Row persistence."""

import dataclasses

import pytest

from repro import telemetry
from repro.analysis import advisor
from repro.analysis.advisor import set_advise_mode
from repro.core.cache import ResultCache, config_digest
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import row_from_dict, row_to_dict
from repro.core.runner import Row, cache_key, run_config, run_sweep
from repro.errors import AdviseError, ConfigurationError
from repro.faults import FaultPlan, Straggler

CFG = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4,
                       options_preset="as-is")


class TestCacheTagging:
    def test_event_key_is_bare_config(self):
        assert cache_key(CFG, "event") is CFG

    def test_analytic_key_never_aliases_event(self):
        assert config_digest(cache_key(CFG, "analytic")) != \
            config_digest(cache_key(CFG, "event"))

    def test_rows_cached_per_engine(self, tmp_path):
        cache = ResultCache(tmp_path)
        row_e = run_config(CFG, cache, engine="event")
        row_a = run_config(CFG, cache, engine="analytic")
        assert row_e.engine == "event"
        assert row_a.engine == "analytic"
        # warm hits come back under the right engine tag
        assert run_config(CFG, cache, engine="event").engine == "event"
        assert run_config(CFG, cache,
                          engine="analytic").engine == "analytic"

    def test_warm_analytic_hit_reports_engine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_config(CFG, cache, engine="analytic")
        warm = run_config(CFG, cache, engine="analytic")
        assert warm == cold
        assert warm.engine == "analytic"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_config(CFG, engine="oracle")


class TestFaultGuard:
    PLAN = FaultPlan(seed=1, stragglers=(Straggler(0, 2.0),))

    def test_analytic_with_faults_is_an_error(self):
        with pytest.raises(ConfigurationError) as exc:
            run_config(CFG, engine="analytic", fault_plan=self.PLAN)
        assert "fault" in str(exc.value)

    def test_auto_with_faults_is_an_error(self):
        with pytest.raises(ConfigurationError):
            run_config(CFG, engine="auto", fault_plan=self.PLAN)

    def test_event_with_faults_still_runs(self):
        faulty = run_config(CFG, engine="event", fault_plan=self.PLAN)
        clean = run_config(CFG, engine="event")
        assert faulty.elapsed > clean.elapsed  # straggler slows rank 0

    def test_empty_plan_is_fine_everywhere(self):
        row = run_config(CFG, engine="analytic", fault_plan=FaultPlan())
        assert row.engine == "analytic"

    def test_chaos_campaign_rejects_analytic(self):
        from repro.faults.chaos import run_campaign
        with pytest.raises(ConfigurationError):
            run_campaign(CFG, engine="analytic")


class TestSweepEngines:
    CONFIGS = [dataclasses.replace(CFG, n_ranks=nr, n_threads=nt)
               for nr, nt in ((1, 8), (2, 4), (4, 2))]

    def test_analytic_sweep_rows_tagged(self, tmp_path):
        sweep = run_sweep("t", self.CONFIGS, ResultCache(tmp_path),
                          engine="analytic")
        assert [r.engine for r in sweep.rows] == ["analytic"] * 3

    def test_analytic_sweep_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep("t", self.CONFIGS, cache, engine="analytic")
        warm = run_sweep("t", self.CONFIGS, cache, engine="analytic")
        assert [r.elapsed for r in warm.rows] == \
            [r.elapsed for r in cold.rows]

    def test_auto_sweep_cross_validates(self, tmp_path):
        # must complete without EngineDisagreement on a healthy model
        sweep = run_sweep("t-auto", self.CONFIGS, ResultCache(tmp_path),
                          engine="auto")
        assert len(sweep.rows) == 3
        assert all(r.engine == "analytic" for r in sweep.rows)

    def test_analytic_sweep_captures_errors(self):
        bad = dataclasses.replace(CFG, n_ranks=48, n_threads=48)
        sweep = run_sweep("t-err", self.CONFIGS + [bad], None,
                          engine="analytic", errors="capture")
        assert len(sweep.rows) == 3
        assert len(sweep.errors) == 1


def _score(entry, configs, engine, **kwargs):
    """Rows and captured errors of ``configs`` through one entry point."""
    if entry == "run_sweep":
        sweep = run_sweep("t-override", configs, engine=engine, **kwargs)
        return sweep.rows, sweep.errors
    kwargs.pop("errors", None)
    return [run_config(c, engine=engine, **kwargs) for c in configs], []


@pytest.mark.parametrize("entry", ["run_sweep", "run_config"])
@pytest.mark.parametrize("engine", ["event", "analytic", "auto"])
class TestAdviseOverride:
    """The per-call ``advise`` beats the global mode on every engine and
    entry point, and the gate runs once per config."""

    #: One ``perf-undersubscribed`` warning each: blocked by "error"
    #: only.
    UNDER = [ExperimentConfig(app="ntchem", n_ranks=1, n_threads=n)
             for n in (1, 2, 3)]

    @pytest.fixture(autouse=True)
    def _global_mode_off_after(self):
        yield
        set_advise_mode("off")

    def test_per_call_off_beats_global_error(self, entry, engine):
        set_advise_mode("error")
        rows, errors = _score(entry, self.UNDER[:1], engine,
                              advise="off", errors="capture")
        assert [r.config for r in rows] == self.UNDER[:1]
        assert errors == []

    def test_per_call_error_beats_global_off(self, entry, engine):
        assert advisor.advise_mode() == "off"
        with pytest.raises(AdviseError):
            _score(entry, self.UNDER[:1], engine, advise="error",
                   errors="raise")
        if entry == "run_sweep":
            rows, errors = _score(entry, self.UNDER[:1], engine,
                                  advise="error", errors="capture")
            assert rows == []
            assert [e.error for e in errors] == ["AdviseError"]

    def test_gate_observed_once_per_config(self, entry, engine,
                                           monkeypatch):
        seen = []
        monkeypatch.setattr(telemetry, "observe",
                            lambda name, value, **_: seen.append(name))
        set_advise_mode("warn")
        rows, _ = _score(entry, self.UNDER, engine)
        assert len(rows) == len(self.UNDER)
        assert seen.count("gate.advise.seconds") == len(self.UNDER)


class TestPersistence:
    def test_engine_round_trips(self):
        row = Row(CFG, 1.5, 2.5, 3.5, 0.25, engine="analytic")
        assert row_from_dict(row_to_dict(row)) == row

    def test_legacy_rows_default_to_event(self):
        d = row_to_dict(Row(CFG, 1.5, 2.5, 3.5, 0.25))
        d.pop("engine")
        assert row_from_dict(d).engine == "event"
