"""Fork-join OpenMP parallel-region timing.

Given a compiled kernel, a region descriptor and the rank's thread
placement, computes how long the region takes:

* iterations are split over threads by the schedule (static / dynamic /
  guided);
* each thread's memory and L2 bandwidth share comes from the *static
  contention census* — how many threads (of any rank) are pinned to its
  NUMA domain (SPMD codes keep all pinned threads simultaneously active in
  compute phases, so the census is the right stand-in for dynamic
  contention);
* under ``"serial-init"`` data policy, a thread running outside the rank's
  home domain accesses its data remotely (home-domain bandwidth derated by
  the chip's remote-access fraction) — the first-touch NUMA effect that
  makes long thread strides lose on single-rank runs;
* fork/join overhead grows with the thread count and with the number of
  domains spanned (the barrier crosses the ring).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.kernels.timing import PhaseTiming, phase_time
from repro.machine.topology import Cluster, CoreAddress
from repro.names import DATA_POLICIES
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.compiler import CompiledKernel
    from repro.runtime.program import Compute

_FORK_BASE_S = 0.5 * US
_FORK_PER_THREAD_S = 0.04 * US
_FORK_PER_DOMAIN_S = 0.15 * US
_DYNAMIC_CHUNK_S = 0.08 * US
_DYNAMIC_CHUNKS_PER_THREAD = 16


@dataclass(frozen=True)
class RegionTiming:
    """Outcome of one parallel region on one rank.

    ``worst`` is the critical thread's :class:`PhaseTiming` and
    ``n_threads`` the region's thread count — the instrumentation record
    the simulated PMU (:mod:`repro.perf`) turns into counters.  Both are
    references to data the timing computed anyway, so attaching them
    costs nothing when profiling is off.
    """

    seconds: float
    flops: float
    dram_bytes: float
    bound: str
    max_thread_seconds: float
    overhead_seconds: float
    worst: PhaseTiming | None = None
    n_threads: int = 1

    def scaled(self, factor: float) -> "RegionTiming":
        """This region stretched by ``factor`` (uniform core slowdown).

        Wall time, critical-thread time, overhead, and the attached
        :class:`PhaseTiming` all scale together, so the simulated PMU's
        cycle accounting stays conservation-exact under straggler
        injection (attributed cycles still equal wall x frequency).
        """
        if factor == 1.0:
            return self
        import dataclasses

        return dataclasses.replace(
            self,
            seconds=self.seconds * factor,
            max_thread_seconds=self.max_thread_seconds * factor,
            overhead_seconds=self.overhead_seconds * factor,
            worst=None if self.worst is None else self.worst.scaled(factor),
        )


def fork_join_overhead(n_threads: int, n_domains: int) -> float:
    """Fork + join cost of one parallel region, seconds."""
    if n_threads < 1 or n_domains < 1:
        raise ConfigurationError("thread/domain counts must be positive")
    if n_threads == 1:
        return 0.0
    return (
        _FORK_BASE_S
        + _FORK_PER_THREAD_S * n_threads
        + _FORK_PER_DOMAIN_S * (n_domains - 1)
    )


def _thread_iters(total: float, n_threads: int, schedule: str,
                  imbalance: float) -> tuple[float, float]:
    """(max-thread iterations, per-chunk overhead seconds) for a schedule."""
    mean = total / n_threads
    if schedule == "static":
        return mean * imbalance, 0.0
    if schedule == "dynamic":
        # dynamic rebalances the imbalance away at a per-chunk cost
        residual = 1.0 + (imbalance - 1.0) * 0.15
        return mean * residual, _DYNAMIC_CHUNK_S * _DYNAMIC_CHUNKS_PER_THREAD
    if schedule == "guided":
        residual = 1.0 + (imbalance - 1.0) * 0.25
        return mean * residual, _DYNAMIC_CHUNK_S * (_DYNAMIC_CHUNKS_PER_THREAD // 2)
    raise ConfigurationError(f"unknown schedule {schedule!r}")


def region_time(
    ck: "CompiledKernel",
    op: "Compute",
    thread_addrs: tuple[CoreAddress, ...],
    cluster: Cluster,
    threads_per_domain: dict[tuple[int, int, int], int],
    home_domain: tuple[int, int, int],
    data_policy: str = "first-touch",
) -> RegionTiming:
    """Time one :class:`~repro.runtime.program.Compute` region for a rank."""
    if data_policy not in DATA_POLICIES:
        raise ConfigurationError(f"unknown data policy {data_policy!r}")
    if not thread_addrs:
        raise ConfigurationError("a region needs at least one thread")

    if op.serial:
        thread_addrs = thread_addrs[:1]
    n_threads = len(thread_addrs)
    max_iters, chunk_overhead = _thread_iters(
        op.iters, n_threads, op.schedule, op.imbalance
    )

    # Threads of one NUMA domain share its spec, census, remote-access
    # status and this rank's thread count there, so they time identically:
    # time each domain once, in first-appearance order (the critical
    # thread is the first of the slowest, as with one call per thread).
    rank_threads = Counter((a.node, a.chip, a.domain) for a in thread_addrs)
    n_domains = len(rank_threads)

    home_dom_spec = cluster.node.chips[home_domain[1]].domains[home_domain[2]]
    home_active = max(1, threads_per_domain.get(home_domain, 1))

    worst: PhaseTiming | None = None
    for key, rank_threads_here in rank_threads.items():
        chip = cluster.node.chips[key[1]]
        dom = chip.domains[key[2]]
        active = max(1, threads_per_domain.get(key, 1))

        if data_policy == "serial-init" and key != home_domain:
            # Remote access: the thread competes for the *home* domain's
            # bandwidth with everything pinned there, further derated by
            # the on-chip ring.
            mem_share = (
                home_dom_spec.memory.per_stream_bandwidth(home_active)
                * chip.remote_access_fraction
            )
        else:
            mem_share = dom.memory.per_stream_bandwidth(active)
        l2_share = dom.l2_bandwidth_share(active)

        # Within a rank, threads co-resident in a shared L2 share their
        # reuse footprint constructively (halo planes, tables);
        # approximate by shrinking the per-thread working set with the
        # rank's thread count in that domain, floored at 30%.
        ws_scale = op.working_set_scale
        if dom.l2.shared and rank_threads_here > 1:
            ws_scale *= max(0.3, 1.0 / rank_threads_here ** 0.5)

        pt = phase_time(
            ck,
            max_iters,
            dom.core,
            dom.l1d,
            dom.l2,
            mem_bandwidth_share=mem_share,
            l2_bandwidth_share=l2_share,
            mem_latency_s=dom.memory.latency_s,
            working_set_scale=ws_scale,
        )
        if worst is None or pt.seconds > worst.seconds:
            worst = pt

    assert worst is not None
    overhead = 0.0 if op.serial else fork_join_overhead(n_threads, n_domains)
    overhead += chunk_overhead
    total_flops = ck.kernel.flops * op.iters
    # DRAM volume scales with the full iteration count, not the max thread.
    dram = worst.dram_bytes / max_iters * op.iters if max_iters > 0 else 0.0
    return RegionTiming(
        seconds=worst.seconds + overhead,
        flops=total_flops,
        dram_bytes=dram,
        bound=worst.bound,
        max_thread_seconds=worst.seconds,
        overhead_seconds=overhead,
        worst=worst,
        n_threads=n_threads,
    )
