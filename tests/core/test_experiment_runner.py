"""Tests for experiment configs, the sweep runner, and metrics."""

import pytest

from repro.core.experiment import (
    ALLOCATION_SWEEP,
    COMPILER_SWEEP,
    MPI_OMP_CONFIGS,
    STRIDE_SWEEP,
    ExperimentConfig,
    single_node_configs,
)
from repro.core.metrics import (
    best_config,
    parallel_efficiency,
    relative_performance,
    speedup,
    spread,
)
from repro.core.runner import run_config, run_sweep
from repro.errors import ConfigurationError


class TestConfigSpaces:
    def test_single_node_configs_cover_divisors(self):
        cfgs = single_node_configs(48)
        assert (1, 48) in cfgs and (48, 1) in cfgs and (4, 12) in cfgs
        for r, t in cfgs:
            assert r * t == 48

    def test_paper_grid_is_valid(self):
        for r, t in MPI_OMP_CONFIGS:
            assert r * t == 48

    def test_sweep_constants_nonempty(self):
        assert STRIDE_SWEEP[0] == 1
        assert "block" in ALLOCATION_SWEEP
        assert COMPILER_SWEEP[0] == "as-is"

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(app="ffvc", options_preset="O9")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(app="ffvc", n_ranks=0)

    @pytest.mark.parametrize("field, value", [
        ("n_ranks", 4.0), ("n_threads", 12.0), ("n_nodes", True),
        ("n_ranks", False), ("app", 1), ("processor", None),
    ])
    def test_fields_keep_their_types(self, field, value):
        """An equal value of another type would encode (and so digest)
        differently from the config it equals."""
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**{"app": "ffvc", field: value})

    @pytest.mark.parametrize("field,value", [
        ("allocation", "cyclic"), ("allocation", None),
        ("binding", "compact"), ("binding", {"policy": "compact",
                                             "stride": 1}),
    ])
    def test_binding_and_allocation_keep_their_types(self, field, value):
        """A plain string would construct, then fail with an
        AttributeError wherever the config is encoded or labelled."""
        with pytest.raises(ConfigurationError, match=f"{field} must be a"):
            ExperimentConfig(**{"app": "ffvc", field: value})

    def test_label_contents(self):
        c = ExperimentConfig(app="ffvc", n_ranks=8, n_threads=6,
                             options_preset="as-is")
        lab = c.label()
        assert "ffvc" in lab and "8x6" in lab and "as-is" in lab

    def test_config_hashable_for_cache(self):
        a = ExperimentConfig(app="ffvc")
        b = ExperimentConfig(app="ffvc")
        assert a == b and hash(a) == hash(b)


class TestRunner:
    def test_run_config_produces_row(self):
        row = run_config(ExperimentConfig(app="ffvc", n_ranks=4, n_threads=4))
        assert row.elapsed > 0
        assert row.gflops > 0
        assert 0 <= row.comm_fraction <= 1

    def test_cache_hits(self):
        cache = {}
        c = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4)
        r1 = run_config(c, cache)
        r2 = run_config(c, cache)
        assert r1 is r2
        assert len(cache) == 1

    def test_run_sweep_preserves_order(self):
        cfgs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
                for r, t in [(1, 8), (2, 4), (4, 2)]]
        sweep = run_sweep("s", cfgs)
        assert [r.config.n_ranks for r in sweep.rows] == [1, 2, 4]

    def test_sweep_by_filter(self):
        cfgs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=48 // r)
                for r in (1, 2, 4)]
        sweep = run_sweep("s", cfgs)
        assert len(sweep.by(n_ranks=2)) == 1
        assert sweep.by(n_ranks=99) == []

    def test_sweep_by_multiple_attrs_and_no_attrs(self):
        cfgs = [ExperimentConfig(app=a, n_ranks=r, n_threads=8 // r)
                for a in ("ffvc", "mvmc") for r in (2, 4)]
        sweep = run_sweep("s", cfgs)
        assert sweep.by() == sweep.rows
        assert len(sweep.by(app="ffvc")) == 2
        got = sweep.by(app="mvmc", n_ranks=4)
        assert len(got) == 1
        assert got[0].config.app == "mvmc" and got[0].config.n_ranks == 4

    def test_sweep_index_tracks_added_rows(self):
        cfgs = [ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4)]
        sweep = run_sweep("s", cfgs)
        assert len(sweep.by(n_ranks=2)) == 1  # builds the index
        sweep.add(sweep.rows[0])              # direct append afterwards
        assert len(sweep.by(n_ranks=2)) == 2  # index rebuilt, not stale

    def test_best_per_attr(self):
        cfgs = [ExperimentConfig(app=a, n_ranks=r, n_threads=8 // r)
                for a in ("ffvc", "mvmc") for r in (1, 2, 4)]
        sweep = run_sweep("s", cfgs)
        best = sweep.best_per("app")
        assert list(best) == ["ffvc", "mvmc"]  # first-seen order
        for app, row in best.items():
            candidates = [r.elapsed for r in sweep.by(app=app)]
            assert row.elapsed == min(candidates)

    def test_empty_sweep_fastest_raises(self):
        sweep = run_sweep("empty", [])
        with pytest.raises(ValueError):
            sweep.fastest()


class TestMetrics:
    @pytest.fixture(scope="class")
    def rows(self):
        cfgs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=48 // r)
                for r in (1, 4, 8)]
        return run_sweep("m", cfgs).rows

    def test_speedup_identity(self, rows):
        assert speedup(rows[0], rows[0]) == 1.0

    def test_parallel_efficiency_bounds(self, rows):
        eff = parallel_efficiency(rows[0], rows[1], 4)
        assert eff > 0

    def test_best_config_filtered(self):
        cfgs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=48 // r)
                for r in (1, 4)]
        sweep = run_sweep("b", cfgs)
        assert best_config(sweep, n_ranks=4).config.n_ranks == 4
        with pytest.raises(ConfigurationError):
            best_config(sweep, n_ranks=3)

    def test_spread_zero_for_identical(self, rows):
        assert spread([rows[0], rows[0]]) == 0.0

    def test_spread_positive(self, rows):
        assert spread(rows) >= 0.0

    def test_relative_performance_reference_is_one(self):
        cfgs = [ExperimentConfig(app="ffvc", processor=p, n_ranks=4,
                                 n_threads=4)
                for p in ("A64FX", "Xeon-Skylake")]
        rows = run_sweep("rp", cfgs).rows
        rel = relative_performance(rows, "A64FX")
        assert rel["A64FX"] == 1.0
        assert rel["Xeon-Skylake"] > 0

    def test_relative_performance_missing_reference(self, rows):
        with pytest.raises(ConfigurationError):
            relative_performance(rows, "PDP-11")
