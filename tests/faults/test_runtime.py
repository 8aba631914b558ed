"""Runtime behaviour under injected faults (executor + SimMPI hooks).

The load-bearing properties:

* **zero-overhead off-switch** — ``fault_plan=None`` and an *empty*
  plan are byte-identical to a run predating fault injection;
* **determinism** — the same plan replays to bit-identical results;
* **conservation** — per-rank attributed time and PMU flop totals stay
  exact under every fault kind;
* **lossy degradation** — crashes and drops wedge ranks into
  ``failed_ranks``/``stalled_ranks`` instead of raising
  :class:`DeadlockError`.
"""

import dataclasses
import functools

import pytest

from repro.compile import PRESETS
from repro.errors import ConfigurationError
from repro.faults import CrashRank, FaultPlan, MessageFault, Straggler
from repro.kernels import presets
from repro.machine import catalog
from repro.perf.profile import NullSink
from repro.runtime import (
    Allreduce,
    Compute,
    Job,
    JobPlacement,
    Recv,
    Send,
    run_job,
)

KERNELS = {"triad": presets.stream_triad()}
N_RANKS = 4


def ring_program(rank, size, iterations=3):
    """Compute + ring halo exchange + allreduce, a few iterations."""
    right = (rank + 1) % size
    left = (rank - 1) % size
    for _ in range(iterations):
        yield Compute("triad", iters=500_000)
        if rank % 2 == 0:
            yield Send(dst=right, tag=0, size_bytes=4096)
            yield Recv(src=left, tag=0)
        else:
            yield Recv(src=left, tag=0)
            yield Send(dst=right, tag=0, size_bytes=4096)
        yield Allreduce(size_bytes=8)


def make_job(plan=None, perf_sink=None, program=ring_program):
    cluster = catalog.a64fx()
    pl = JobPlacement(cluster, N_RANKS, 2)
    return Job(cluster=cluster, placement=pl, kernels=KERNELS,
               program=program, options=PRESETS["kfast"],
               fault_plan=plan, perf_sink=perf_sink)


def signature(result):
    return (result.elapsed, tuple(sorted(result.rank_finish.items())),
            result.messages_sent, result.bytes_sent, result.total_flops,
            result.failed_ranks, result.stalled_ranks)


@pytest.fixture(scope="module")
def baseline():
    return run_job(make_job())


class TestOffSwitch:
    def test_empty_plan_is_byte_identical(self, baseline):
        assert signature(run_job(make_job(FaultPlan()))) \
            == signature(baseline)

    def test_baseline_not_degraded(self, baseline):
        assert not baseline.degraded
        assert baseline.fault_stats is None

    def test_job_validates_fault_ranks(self):
        with pytest.raises(ConfigurationError):
            make_job(FaultPlan(crashes=(CrashRank(N_RANKS, 0.0),)))
        with pytest.raises(ConfigurationError):
            make_job(FaultPlan(stragglers=(Straggler(99, 2.0),)))


class TestDeterminism:
    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=3, stragglers=(Straggler(1, 1.7),)),
        FaultPlan(seed=3, crashes=(CrashRank(2, 1e-4),)),
        FaultPlan(seed=3, message_faults=(
            MessageFault(kind="drop", probability=0.3),)),
        FaultPlan(seed=3, message_faults=(
            MessageFault(kind="duplicate", probability=0.5),
            MessageFault(kind="delay", delay_s=2e-6, probability=0.5),)),
    ], ids=["straggler", "crash", "drop", "dup+delay"])
    def test_replay_is_bit_identical(self, plan):
        a = run_job(make_job(plan))
        b = run_job(make_job(plan))
        assert signature(a) == signature(b)
        assert a.fault_stats.to_dict() == b.fault_stats.to_dict()


class TestStraggler:
    def test_straggler_stretches_elapsed(self, baseline):
        res = run_job(make_job(FaultPlan(stragglers=(Straggler(0, 2.0),))))
        assert res.elapsed > baseline.elapsed
        assert not res.degraded          # lossless: still completes
        assert res.fault_stats.straggled_regions > 0

    def test_monotone_in_severity(self, baseline):
        prev = baseline.elapsed
        for factor in (1.3, 1.8, 2.5):
            res = run_job(make_job(
                FaultPlan(stragglers=(Straggler(0, factor),))))
            assert res.elapsed >= prev * (1 - 1e-12)
            prev = res.elapsed

    def test_late_start_matches_partial_injection(self, baseline):
        """A straggler starting after the run ends changes nothing."""
        res = run_job(make_job(FaultPlan(stragglers=(
            Straggler(0, 3.0, start=baseline.elapsed * 10),))))
        assert signature(res)[:5] == signature(baseline)[:5]
        assert res.fault_stats.straggled_regions == 0

    def test_window_opening_mid_run_scales_only_later_regions(self):
        """The executor reuses one timing per (rank, op) within a run,
        so the straggler factor must apply per call, on the unscaled
        timing: rank 0's regions before ``start`` keep their baseline
        duration exactly, and every one at or after it takes exactly
        twice as long (not 4x, 8x, ... as a memo of scaled timings
        would make the later repeats)."""

        class Regions(NullSink):
            def __init__(self):
                self.rank0 = []          # (start, seconds) per region

            def on_compute(self, rank, op, timing, ck, start):
                if rank == 0:
                    self.rank0.append((start, timing.seconds))

        program = functools.partial(ring_program, iterations=8)
        before, after = Regions(), Regions()
        baseline = run_job(make_job(perf_sink=before, program=program))
        start = baseline.elapsed / 2
        res = run_job(make_job(
            FaultPlan(stragglers=(Straggler(0, 2.0, start=start),)),
            perf_sink=after, program=program))

        assert len(after.rank0) == len(before.rank0)
        late = [t0 >= start for t0, _ in after.rank0]
        assert sum(late) >= 2 and not all(late)
        for (_, base), (_, got), is_late in zip(before.rank0, after.rank0,
                                                late):
            assert got == (base * 2.0 if is_late else base)
        assert res.fault_stats.straggled_regions == sum(late)


class TestCrash:
    def test_crash_degrades_instead_of_raising(self, baseline):
        plan = FaultPlan(crashes=(CrashRank(2, baseline.elapsed * 0.4),))
        res = run_job(make_job(plan))
        assert res.failed_ranks == (2,)
        assert res.degraded
        assert res.fault_stats.crashes == 1
        # the ring couples everyone: peers wedge waiting on the dead rank
        assert res.stalled_ranks
        assert set(res.stalled_ranks).isdisjoint(res.failed_ranks)

    def test_crash_at_time_zero_executes_nothing(self):
        res = run_job(make_job(FaultPlan(crashes=(CrashRank(1, 0.0),))))
        assert res.failed_ranks == (1,)
        assert res.rank_finish[1] == 0.0

    def test_dead_rank_finish_time_precedes_elapsed(self, baseline):
        plan = FaultPlan(crashes=(CrashRank(2, baseline.elapsed * 0.4),))
        res = run_job(make_job(plan))
        for rank in res.failed_ranks + res.stalled_ranks:
            assert res.rank_finish[rank] <= res.elapsed


class TestMessageFaults:
    def test_delay_adds_exactly(self, baseline):
        delay = 5e-6
        plan = FaultPlan(message_faults=(
            MessageFault(kind="delay", src=0, dst=1, delay_s=delay,
                         max_events=1),))
        res = run_job(make_job(plan))
        assert res.fault_stats.delays == 1
        assert res.fault_stats.delay_seconds == delay
        assert not res.degraded
        assert res.elapsed >= baseline.elapsed

    def test_duplicate_burns_messages_and_bytes(self, baseline):
        plan = FaultPlan(message_faults=(
            MessageFault(kind="duplicate", probability=0.5),))
        res = run_job(make_job(plan))
        dups = res.fault_stats.duplicates
        assert dups > 0
        assert res.messages_sent == baseline.messages_sent + dups
        assert res.bytes_sent > baseline.bytes_sent
        assert not res.degraded

    def test_drop_wedges_receiver_without_deadlock_error(self):
        plan = FaultPlan(message_faults=(
            MessageFault(kind="drop", src=0, dst=1, max_events=1),))
        res = run_job(make_job(plan))     # must NOT raise DeadlockError
        assert res.fault_stats.drops == 1
        assert res.degraded
        assert res.stalled_ranks


class TestConservationUnderFaults:
    @pytest.mark.parametrize("plan", [
        None,
        FaultPlan(stragglers=(Straggler(1, 2.0),)),
        FaultPlan(crashes=(CrashRank(2, 1e-4),)),
        FaultPlan(message_faults=(
            MessageFault(kind="drop", src=0, dst=1, max_events=1),)),
        FaultPlan(message_faults=(
            MessageFault(kind="duplicate", probability=0.5),)),
    ], ids=["clean", "straggler", "crash", "drop", "duplicate"])
    def test_time_and_flops_conserved(self, plan):
        from repro.perf.profile import ProfileSink

        sink = ProfileSink()
        res = run_job(make_job(plan, perf_sink=sink))
        profile = sink.profile()
        for rank, finish in res.rank_finish.items():
            attributed = profile.attributed_seconds(rank)
            assert attributed == pytest.approx(finish, rel=1e-9, abs=1e-15)
        assert profile.total_counters().flops \
            == pytest.approx(res.total_flops, rel=1e-9)


class TestScaledTimings:
    def test_phase_timing_scaled(self):
        from repro.compile import Compiler
        from repro.kernels import phase_time

        dom = catalog.a64fx().node.chips[0].domains[0]
        ck = Compiler(PRESETS["kfast"]).compile(presets.stream_triad(),
                                                dom.core)
        t = phase_time(
            ck, 1e6, dom.core, dom.l1d, dom.l2,
            mem_bandwidth_share=dom.memory.per_stream_bandwidth(1),
            l2_bandwidth_share=dom.l2_bandwidth_share(1),
            mem_latency_s=dom.memory.latency_s,
        )
        doubled = t.scaled(2.0)
        assert doubled.seconds == t.seconds * 2.0
        assert doubled.flops == t.flops           # work is unchanged
        assert doubled.dram_bytes == t.dram_bytes
        assert t.scaled(1.0) is t
        with pytest.raises(ConfigurationError):
            t.scaled(-1.0)
