"""Tests for the static performance advisor (``repro advise``)."""

import dataclasses
import os

import pytest

from repro.analysis import advisor
from repro.analysis.advisor import (
    advise_config,
    advise_gate,
    advise_mode,
    is_feasible,
    set_advise_mode,
)
from repro.analysis.rules import PERF_RULES
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig, single_node_configs
from repro.core.runner import run_config, run_sweep
from repro.errors import AdviseError, ConfigurationError
from repro.machine import catalog
from repro.miniapps import SUITE
from repro.runtime.affinity import ProcessAllocation, ThreadBinding

CFG = ExperimentConfig(app="ccs-qcd", dataset="as-is",
                       n_ranks=4, n_threads=12)


@pytest.fixture(autouse=True)
def _clean_gate_mode():
    """Advise mode is env-global; every test starts and ends at 'off'."""
    os.environ.pop(advisor.ENV_ADVISE, None)
    yield
    os.environ.pop(advisor.ENV_ADVISE, None)


# ----------------------------------------------------------------------
# infeasible placements at CMG / node boundaries
# ----------------------------------------------------------------------
class TestInfeasiblePlacements:
    def infeasible(self, **kw):
        config = dataclasses.replace(CFG, **kw)
        diag = is_feasible(config)
        assert diag is not None, f"{config.label()} should be infeasible"
        assert diag.check == "perf-placement-infeasible"
        assert diag.severity == "error"
        return diag

    def test_one_rank_too_many(self):
        # 48 cores on the node: 48x1 fits exactly, 49x1 cannot place
        assert is_feasible(dataclasses.replace(CFG, n_ranks=48,
                                               n_threads=1)) is None
        diag = self.infeasible(n_ranks=49, n_threads=1)
        assert "49" in diag.message and "48" in diag.message

    def test_threads_exceed_node(self):
        self.infeasible(n_ranks=1, n_threads=49)

    def test_binding_stride_wraps_node(self):
        # stride 4 x 12 threads covers the node; stride 48 cannot
        assert is_feasible(dataclasses.replace(
            CFG, n_ranks=1, n_threads=12,
            binding=ThreadBinding("stride", stride=4))) is None
        self.infeasible(n_ranks=1, n_threads=2,
                        binding=ThreadBinding("stride", stride=48))

    def test_domain_pack_padding_exhaustion(self):
        # 5 ranks x 10 threads = 50 logical cores once each rank's
        # window is padded to the 12-core CMG boundary — but 4x12 packs
        pack = ProcessAllocation("domain-pack")
        assert is_feasible(dataclasses.replace(
            CFG, allocation=pack)) is None
        self.infeasible(n_ranks=5, n_threads=10, allocation=pack)

    def test_feasible_config_returns_none(self):
        assert is_feasible(CFG) is None

    def test_infeasible_message_cites_geometry(self):
        diag = self.infeasible(n_ranks=49, n_threads=1)
        assert "49 ranks x 1 threads" in diag.message
        assert "1x48 cores" in diag.message


# ----------------------------------------------------------------------
# rule coverage: >= 6 distinct perf-* ids fire across real configs
# ----------------------------------------------------------------------
class TestRuleCoverage:
    def test_six_distinct_perf_rules_fire(self):
        fired = set()
        # the catalog grid (the advise-clean surface, error-free) ...
        for proc in ("A64FX", "SPARC64-VIIIfx"):
            cores = catalog.by_name(proc).cores_per_node
            for app in sorted(SUITE):
                for nr, nt in single_node_configs(cores):
                    config = ExperimentConfig(
                        app=app, dataset="as-is", processor=proc,
                        n_ranks=nr, n_threads=nt)
                    fired |= {d.check
                              for d in advise_config(config).diagnostics}
        # ... plus deliberately bad placements
        for kw in (dict(n_ranks=49, n_threads=1),           # infeasible
                   dict(n_ranks=2, n_threads=12),           # idle cores
                   dict(n_ranks=1, n_threads=24,            # CMG span
                        data_policy="serial-init")):
            config = dataclasses.replace(CFG, **kw)
            fired |= {d.check for d in advise_config(config).diagnostics}
        perf_fired = {c for c in fired if c.startswith("perf-")}
        assert len(perf_fired) >= 6, sorted(perf_fired)
        assert perf_fired <= set(PERF_RULES)

    def test_every_finding_carries_model_numbers(self):
        report = advise_config(CFG)
        assert not report.ok     # memory-bound infos at minimum
        for diag in report.diagnostics:
            # quantitative claims cite model numbers (ns/it, GB/s, ...)
            assert any(ch.isdigit() for ch in diag.message), diag
            assert diag.hint, diag

    def test_cmg_span_cites_fork_join(self):
        config = dataclasses.replace(CFG, n_ranks=1, n_threads=12,
                                     binding=ThreadBinding("stride",
                                                           stride=4))
        found = advise_config(config).by_check("perf-cmg-span")
        assert found
        assert "us/region" in found[0].message

    def test_remote_traffic_under_serial_init(self):
        config = dataclasses.replace(CFG, n_ranks=1, n_threads=24,
                                     data_policy="serial-init")
        found = advise_config(config).by_check("perf-remote-traffic")
        assert found
        assert "GB/s" in found[0].message

    def test_memory_bound_cites_saturation_knee(self):
        found = advise_config(CFG).by_check("perf-memory-bound")
        assert found
        # A64FX: 209.9 GB/s sustained / 50 GB/s per stream => knee at 5
        assert "knee at 5" in found[0].message

    def test_undersubscribed_idle_fraction(self):
        config = dataclasses.replace(CFG, n_ranks=2, n_threads=12)
        found = advise_config(config).by_check("perf-undersubscribed")
        assert found
        assert found[0].severity == "warning"     # 50% idle
        assert "24 of 48" in found[0].message

    def test_gather_stride_on_latency_bound_kernel(self):
        # ccs-qcd's dirac kernel is gather-latency dominated
        found = advise_config(CFG).by_check("perf-gather-stride")
        assert found
        assert "qcd-dirac" in found[0].message

    def test_l2_bound_rule_synthetic(self):
        # Nowhere in the real model space does the L2 phase dominate —
        # A64FX's HBM2 saturates before its L2 does (see DESIGN.md) —
        # so the rule is exercised on a doctored breakdown.
        from repro.analysis.diagnostics import DiagnosticReport
        from repro.analytic import engine as analytic

        breakdown = analytic.config_breakdown(CFG)
        groups = tuple(dataclasses.replace(g, bound="l2")
                       for g in breakdown.groups)
        breakdown = dataclasses.replace(breakdown, groups=groups)
        cluster = analytic._cluster(CFG.processor, CFG.n_nodes)
        placement = analytic._placement_table(
            CFG.processor, CFG.n_nodes, CFG.n_ranks, CFG.n_threads,
            CFG.allocation, CFG.binding).placement
        profile = analytic._profile(CFG.app, CFG.dataset, CFG.n_ranks)
        report = DiagnosticReport(CFG.label())
        advisor._check_boundedness(report, cluster, placement,
                                   breakdown, profile)
        found = report.by_check("perf-l2-bound")
        assert found
        assert found[0].severity == "info"
        assert "shared L2" in found[0].message
        assert "MiB" in found[0].message


# ----------------------------------------------------------------------
# gate modes
# ----------------------------------------------------------------------
class TestGate:
    BAD = dataclasses.replace(CFG, n_ranks=49, n_threads=1)
    WARN_ONLY = dataclasses.replace(CFG, n_ranks=2, n_threads=12)

    def test_off_is_default_and_noop(self):
        assert advise_mode() == "off"
        advise_gate(self.BAD)                     # no raise

    def test_warn_blocks_errors_only(self):
        with pytest.raises(AdviseError) as exc:
            advise_gate(self.BAD, mode="warn")
        assert exc.value.diagnostics
        assert exc.value.diagnostics[0].check == "perf-placement-infeasible"
        advise_gate(self.WARN_ONLY, mode="warn")  # warnings pass

    def test_error_blocks_warnings_too(self):
        with pytest.raises(AdviseError):
            advise_gate(self.WARN_ONLY, mode="error")

    def test_env_mode_round_trip(self):
        set_advise_mode("warn")
        assert advise_mode() == "warn"
        assert os.environ[advisor.ENV_ADVISE] == "warn"
        set_advise_mode("off")
        assert advisor.ENV_ADVISE not in os.environ
        assert advise_mode() == "off"

    def test_env_mode_drives_default_gate(self):
        set_advise_mode("warn")
        with pytest.raises(AdviseError):
            advise_gate(self.BAD)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            set_advise_mode("loud")
        with pytest.raises(ConfigurationError):
            advise_gate(CFG, mode="loud")

    def test_run_config_gates(self, tmp_path):
        with pytest.raises(AdviseError):
            run_config(self.BAD, None, engine="analytic", advise="warn")
        row = run_config(CFG, None, engine="analytic", advise="warn")
        assert row.elapsed > 0

    def test_run_sweep_captures_gated_configs(self):
        sweep = run_sweep("t-advise", [CFG, self.BAD], None,
                          engine="analytic", errors="capture",
                          advise="warn")
        assert len(sweep.rows) == 1
        assert len(sweep.errors) == 1

    def test_run_sweep_raises_when_asked(self):
        with pytest.raises(AdviseError):
            run_sweep("t-advise-raise", [self.BAD], None,
                      engine="analytic", errors="raise", advise="warn")


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
class TestAdviseCache:
    def test_memoized_per_process(self):
        advisor.clear_memos()
        one = advise_config(CFG)
        assert advise_config(CFG) is one

    def test_persists_and_reloads(self, tmp_path):
        advisor.clear_memos()
        cache = ResultCache(tmp_path)
        fresh = advise_config(CFG, cache=cache)
        advisor.clear_memos()
        again = advise_config(CFG, cache=ResultCache(tmp_path))
        assert again is not fresh
        # serialization canonicalizes the order (sort_key), not the set
        key = lambda d: d.sort_key()                          # noqa: E731
        assert sorted(again.diagnostics, key=key) \
            == sorted(fresh.diagnostics, key=key)

    def test_distinct_digest_from_lint(self):
        from repro.core.cache import config_digest

        # lint keys by config_digest(config); one cache log must never
        # alias the two report kinds
        assert advisor._advise_digest(CFG) != config_digest(CFG)

    def test_analyzer_fingerprint_invalidates(self, tmp_path, monkeypatch):
        from repro.analysis import rules

        advisor.clear_memos()
        advise_config(CFG, cache=ResultCache(tmp_path))
        advisor.clear_memos()
        monkeypatch.setattr(rules, "ANALYZER_VERSION", 9999)
        rules.analyzer_fingerprint(refresh=True)
        try:
            stale = ResultCache(tmp_path)
            assert stale.verdict(advisor._advise_key(CFG)) is None
        finally:
            monkeypatch.undo()
            rules.analyzer_fingerprint(refresh=True)
        # sanity: the record is served again once the version matches
        warm = ResultCache(tmp_path)
        assert warm.verdict(advisor._advise_key(CFG)) is not None


# ----------------------------------------------------------------------
# the breakdown the advisor reasons from
# ----------------------------------------------------------------------
#: Every app on a shared-L2 and a private-L2 processor, with both data
#: policies (serial-init exercises the remote-home memory shares).
BREAKDOWN_CFGS = [
    dataclasses.replace(CFG, app=app, processor=processor,
                        data_policy=policy)
    for app in SUITE
    for processor in ("A64FX", "ThunderX2")
    for policy in ("first-touch", "serial-init")
]


class TestBreakdownConsistency:
    """The breakdown and the scorer share one per-group function and one
    accumulation order, so their numbers agree exactly."""

    def test_breakdown_matches_score_config(self):
        from repro.analytic.engine import config_breakdown, score_config

        for config in BREAKDOWN_CFGS:
            bd = config_breakdown(config)
            assert bd.elapsed == score_config(config).elapsed, \
                (config.label(), config.data_policy)

    def test_group_seconds_sum_to_class_compute(self):
        from repro.analytic.engine import config_breakdown

        for config in BREAKDOWN_CFGS:
            bd = config_breakdown(config)
            for cls in bd.classes:
                total = 0.0
                for g in bd.class_groups(cls.class_idx):
                    total += g.seconds
                assert total == cls.compute_s, \
                    (config.label(), config.data_policy)
