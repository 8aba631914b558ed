"""Unit tests for the ablation-study helpers (reduced scopes; the full
sweeps run in benchmarks/)."""

import pytest

from repro.core import ablations


class TestVectorLength:
    def test_vl_monotone_for_compute_bound(self):
        _, data = ablations.a1_vector_length(apps=["ntchem"], cache={})
        times = data["ntchem"]
        assert times[512] < times[256] < times[128]

    def test_table_has_unit_baseline(self):
        table, _ = ablations.a1_vector_length(apps=["ffvc"], cache={})
        assert table.column("VL-128") == ["1.000"]


class TestPowerModes:
    def test_single_app_study(self):
        table, data = ablations.a2_power_modes(apps=["ffvc"])
        assert set(data["ffvc"]) == {"normal", "eco", "boost"}
        assert len(table.rows) == 1

    def test_boost_draws_more_power(self):
        _, data = ablations.a2_power_modes(apps=["ntchem"])
        reps = data["ntchem"]
        assert reps["boost"].average_watts > reps["normal"].average_watts \
            > reps["eco"].average_watts


class TestMicroarchitecture:
    @pytest.fixture(scope="class")
    def data(self):
        _, data = ablations.a3_microarchitecture(apps=["mvmc", "ffvc"])
        return data

    def test_knobs_present(self, data):
        assert set(data["mvmc"]) == {"ooo-224", "fp-lat-4", "line-64B"}

    def test_low_ilp_app_gains_from_window(self, data):
        assert data["mvmc"]["ooo-224"] > data["ffvc"]["ooo-224"]

    def test_variants_share_memory_system(self):
        """The variants must only change what they claim to change."""
        base = ablations.catalog.a64fx()
        var = ablations._a64fx_variant(ooo_window=224)
        assert var.node.peak_memory_bandwidth == \
            base.node.peak_memory_bandwidth
        assert var.node.peak_flops_fp64 == base.node.peak_flops_fp64
        line = ablations._a64fx_line_variant(64)
        assert line.node.chips[0].domains[0].l2.line_bytes == 64
        assert line.node.chips[0].domains[0].l2.capacity_bytes == \
            base.node.chips[0].domains[0].l2.capacity_bytes
