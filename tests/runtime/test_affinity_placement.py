"""Tests for thread binding, process allocation, and placement."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, PlacementError
from repro.machine import catalog
from repro.runtime.affinity import ProcessAllocation, ThreadBinding, strided_order
from repro.runtime.placement import JobPlacement


class TestStridedOrder:
    def test_stride_one_is_identity(self):
        assert strided_order(8, 1) == list(range(8))

    def test_stride_four_interleaves(self):
        assert strided_order(8, 4) == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_domain_scatter_on_a64fx(self):
        order = strided_order(48, 12)
        # first four threads land on four different CMGs
        assert [c // 12 for c in order[:4]] == [0, 1, 2, 3]

    @given(n=st.integers(1, 128), stride=st.integers(1, 64))
    def test_always_a_permutation(self, n, stride):
        order = strided_order(n, stride)
        assert sorted(order) == list(range(n))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            strided_order(0, 1)
        with pytest.raises(ConfigurationError):
            strided_order(8, 0)


class TestThreadBinding:
    def test_policies_and_strides(self):
        assert ThreadBinding("compact").effective_stride(12) == 1
        assert ThreadBinding("scatter").effective_stride(12) == 12
        assert ThreadBinding("stride", stride=4).effective_stride(12) == 4

    def test_compact_requires_stride_one(self):
        with pytest.raises(ConfigurationError):
            ThreadBinding("compact", stride=2)

    @pytest.mark.parametrize("stride", [2.0, True])
    def test_stride_must_be_an_int(self, stride):
        with pytest.raises(ConfigurationError, match="stride must be an int"):
            ThreadBinding("stride", stride=stride)

    def test_labels(self):
        assert ThreadBinding("stride", stride=4).label() == "stride-4"
        assert ThreadBinding("scatter").label() == "scatter"


class TestProcessAllocation:
    def test_block_fills_in_order(self):
        buckets = ProcessAllocation("block").ranks_per_node(6, 3, 4)
        assert buckets == [[0, 1, 2, 3], [4, 5], []]

    def test_cyclic_deals_round_robin(self):
        buckets = ProcessAllocation("cyclic").ranks_per_node(6, 3, 4)
        assert buckets == [[0, 3], [1, 4], [2, 5]]

    def test_spread_balances(self):
        buckets = ProcessAllocation("spread").ranks_per_node(6, 3, 4)
        assert [len(b) for b in buckets] == [2, 2, 2]

    def test_capacity_enforced(self):
        with pytest.raises(PlacementError):
            ProcessAllocation("block").ranks_per_node(10, 2, 4)

    def test_zero_capacity_rejected(self):
        with pytest.raises(PlacementError):
            ProcessAllocation("block").ranks_per_node(1, 2, 0)

    @given(
        method=st.sampled_from(ProcessAllocation.METHODS),
        n_ranks=st.integers(1, 64),
        n_nodes=st.integers(1, 8),
        cap=st.integers(1, 16),
    )
    def test_every_rank_placed_exactly_once(self, method, n_ranks, n_nodes, cap):
        alloc = ProcessAllocation(method)
        if n_ranks > n_nodes * cap:
            with pytest.raises(PlacementError):
                alloc.ranks_per_node(n_ranks, n_nodes, cap)
            return
        buckets = alloc.ranks_per_node(n_ranks, n_nodes, cap)
        flat = [r for b in buckets for r in b]
        assert sorted(flat) == list(range(n_ranks))
        assert all(len(b) <= cap for b in buckets)


class TestJobPlacement:
    @pytest.fixture(scope="class")
    def cluster(self):
        return catalog.a64fx(n_nodes=2)

    def test_mpi_omp_grid_fills_node(self, cluster):
        for nr, nt in [(1, 48), (2, 24), (4, 12), (8, 6), (12, 4), (48, 1)]:
            pl = JobPlacement(cluster, nr, nt)
            used = {a for addrs in pl.thread_map.values() for a in addrs}
            assert len(used) == 48  # exactly node 0 fully used
            assert all(a.node == 0 for a in used)

    def test_compact_4x12_one_rank_per_cmg(self, cluster):
        pl = JobPlacement(cluster, 4, 12)
        for rank in range(4):
            assert pl.domains_spanned(rank) == 1
            assert pl.home_domain(rank) == (0, 0, rank)

    def test_scatter_1x48_spans_all_cmgs(self, cluster):
        pl = JobPlacement(cluster, 1, 48, binding=ThreadBinding("scatter"))
        assert pl.domains_spanned(0) == 4

    def test_stride_binding_spreads_threads(self, cluster):
        compact = JobPlacement(cluster, 1, 12)
        strided = JobPlacement(cluster, 1, 12,
                               binding=ThreadBinding("stride", stride=12))
        assert compact.domains_spanned(0) == 1
        assert strided.domains_spanned(0) == 4

    def test_threads_per_domain_census(self, cluster):
        pl = JobPlacement(cluster, 4, 12)
        census = pl.threads_per_domain
        assert census == {(0, 0, d): 12 for d in range(4)}

    def test_cyclic_allocation_uses_both_nodes(self, cluster):
        pl = JobPlacement(cluster, 2, 12,
                          allocation=ProcessAllocation("cyclic"))
        assert pl.node_of(0) == 0 and pl.node_of(1) == 1

    def test_block_allocation_packs_node_zero(self, cluster):
        pl = JobPlacement(cluster, 2, 12,
                          allocation=ProcessAllocation("block"))
        assert pl.node_of(0) == pl.node_of(1) == 0

    def test_oversubscription_rejected(self, cluster):
        with pytest.raises(PlacementError):
            JobPlacement(cluster, 3, 48)

    def test_thread_count_exceeding_node_rejected(self, cluster):
        with pytest.raises(PlacementError):
            JobPlacement(cluster, 1, 49)

    def test_unknown_rank_rejected(self, cluster):
        pl = JobPlacement(cluster, 2, 4)
        with pytest.raises(PlacementError):
            pl.thread_cores(7)

    def test_domain_pack_avoids_straddle(self, cluster):
        # 5 threads per rank: block would straddle CMG boundaries for rank 2
        pl = JobPlacement(cluster, 4, 5,
                          allocation=ProcessAllocation("domain-pack"))
        for rank in range(4):
            assert pl.domains_spanned(rank) == 1

    @given(nr_nt=st.sampled_from([(1, 48), (2, 24), (4, 12), (6, 8),
                                  (8, 6), (16, 3), (24, 2), (48, 1)]),
           stride=st.sampled_from([1, 2, 4, 12]))
    def test_no_core_oversubscription_anywhere(self, nr_nt, stride):
        cluster = catalog.a64fx(n_nodes=2)
        nr, nt = nr_nt
        binding = (ThreadBinding("compact") if stride == 1
                   else ThreadBinding("stride", stride=stride))
        pl = JobPlacement(cluster, nr, nt, binding=binding)
        used = [a for addrs in pl.thread_map.values() for a in addrs]
        assert len(used) == len(set(used)) == nr * nt
