"""Reduced-scope structural tests for the figure entry points (the full
paper-scale sweeps run in benchmarks/)."""

import pytest

from repro.core import figures


class TestF9WeakScalingSmall:
    def test_two_point_weak_scaling(self):
        table, data = figures.f9_weak_scaling(apps=["ffvc"],
                                              node_counts=[1, 2])
        times = data["ffvc"]
        assert len(times) == 2
        # near-flat
        assert times[1] < 1.3 * times[0]

    def test_weak_dataset_registration(self):
        from repro.miniapps import by_name

        app = by_name("ccs-qcd")
        ds = app.weak_dataset(4)
        assert ds.name == "weak-x4"
        assert app.dataset("weak-x4")["lattice"][0] == \
            4 * app.dataset("large")["lattice"][0]

    def test_weak_dataset_unsupported_app(self):
        from repro.errors import DatasetError
        from repro.miniapps import by_name

        with pytest.raises(DatasetError):
            by_name("ngsa").weak_dataset(2)

    def test_weak_dataset_bad_factor(self):
        from repro.miniapps import by_name

        with pytest.raises(ValueError):
            by_name("ffvc").weak_dataset(0)


class TestF10BreakdownSmall:
    @pytest.fixture(scope="class")
    def breakdown(self):
        return figures.f10_time_breakdown(apps=["ffvc", "ntchem"])

    def test_structure(self, breakdown):
        table, data = breakdown
        assert len(table.rows) == 2
        assert set(data) == {"ffvc", "ntchem"}

    def test_shares_bounded(self, breakdown):
        _, data = breakdown
        for app, shares in data.items():
            for label, pct in shares.items():
                assert 0.0 <= pct <= 100.0, (app, label)

    def test_compute_shares_dominate(self, breakdown):
        _, data = breakdown
        # the two compute kernels together exceed communication categories
        ffvc = data["ffvc"]
        compute = sum(v for k, v in ffvc.items()
                      if k.startswith("ffvc-"))
        comm = ffvc["p2p"] + ffvc["collective"]
        assert compute > comm


class TestCacheSharing:
    def test_shared_cache_avoids_recomputation(self):
        cache = {}
        t1, _ = figures.f1_mpi_omp_sweep(apps=["mvmc"],
                                         configs=[(4, 12)], cache=cache)
        n_after_first = len(cache)
        t2, _ = figures.f2_thread_stride(apps=["mvmc"], cache=cache)
        # the stride-1 compact point is NOT shared (different data policy),
        # but repeating f1 itself is fully cached
        figures.f1_mpi_omp_sweep(apps=["mvmc"], configs=[(4, 12)],
                                 cache=cache)
        assert len(cache) >= n_after_first
        assert t1.rows == t1.rows
