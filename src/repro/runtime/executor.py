"""Run rank programs on the machine model.

:func:`run_job` is the single entry point the miniapps and experiments use:
it compiles the job's kernels for the target core, spawns one generator per
rank, and interprets the yielded operations against the event engine, the
simulated MPI layer, and the OpenMP region model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.compile.compiler import CompiledKernel, Compiler
from repro.compile.options import CompilerOptions
from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.kernels.kernel import LoopKernel
from repro.machine.topology import Cluster
from repro.runtime import program as ops
from repro.runtime.event import Engine
from repro.runtime.mpi import Request, SimMPI
from repro.runtime.openmp import DATA_POLICIES, RegionTiming, region_time
from repro.runtime.placement import JobPlacement
from repro.runtime.trace import RankTrace

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.plan import FaultPlan
    from repro.perf.profile import NullSink

#: Type of a rank-program factory: (rank, size) -> generator of ops.
ProgramFactory = Callable[[int, int], Iterator]


@dataclass(frozen=True)
class Job:
    """Everything needed to simulate one application run."""

    cluster: Cluster
    placement: JobPlacement
    kernels: dict[str, LoopKernel]
    program: ProgramFactory
    options: CompilerOptions = field(default_factory=CompilerOptions)
    data_policy: str = "first-touch"
    communicators: dict[str, tuple[int, ...]] | None = None
    name: str = "job"
    #: Failure/straggler injection: node index -> compute slowdown factor
    #: (>= 1; e.g. {2: 1.5} models a thermally throttled node 2).
    node_slowdown: dict[int, float] | None = None
    #: Simulated-PMU sink (:class:`repro.perf.profile.ProfileSink`-shaped).
    #: ``None`` — the default — keeps every hot path at a single
    #: ``is not None`` test, so profiling costs nothing when off.
    perf_sink: "NullSink | None" = None
    #: Deterministic fault injection (:class:`repro.faults.FaultPlan`).
    #: ``None`` — the default — keeps every executor/MPI hook at a single
    #: ``is not None`` predicate, so chaos costs nothing when off.
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.placement.cluster is not self.cluster:
            raise ConfigurationError("placement was built for a different cluster")
        if self.data_policy not in DATA_POLICIES:
            raise ConfigurationError(f"unknown data policy {self.data_policy!r}")
        if not self.kernels:
            raise ConfigurationError("job has no kernels")
        if self.node_slowdown:
            for node, factor in self.node_slowdown.items():
                if not 0 <= node < self.cluster.n_nodes:
                    raise ConfigurationError(f"slowdown for unknown node {node}")
                if factor < 1.0:
                    raise ConfigurationError(
                        f"slowdown factor must be >= 1, got {factor}"
                    )
        if self.fault_plan is not None:
            n = self.placement.n_ranks
            for spec in (*self.fault_plan.crashes, *self.fault_plan.stragglers):
                if spec.rank >= n:
                    raise ConfigurationError(
                        f"fault plan names rank {spec.rank}, but the job "
                        f"has only {n} ranks"
                    )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    job_name: str
    elapsed: float
    traces: dict[int, RankTrace]
    rank_finish: dict[int, float]
    total_flops: float
    total_dram_bytes: float
    messages_sent: int
    bytes_sent: float
    placement_label: str
    io_bytes: float = 0.0
    #: Ranks killed by injected faults (their traces end at the crash).
    failed_ranks: tuple[int, ...] = ()
    #: Ranks wedged as collateral of a lossy fault (blocked forever on a
    #: crashed peer or a dropped message); their ``rank_finish`` is the
    #: time they blocked, so time accounting stays conservation-exact.
    stalled_ranks: tuple[int, ...] = ()
    #: What the fault plan actually did (:class:`repro.faults.FaultStats`)
    #: — ``None`` when the job carried no (non-empty) plan.
    fault_stats: object | None = None

    @property
    def degraded(self) -> bool:
        """True when injected faults cost this run at least one rank."""
        return bool(self.failed_ranks or self.stalled_ranks)

    @property
    def achieved_flops_per_s(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.total_flops / self.elapsed

    @property
    def dram_bandwidth(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.total_dram_bytes / self.elapsed

    def breakdown(self) -> dict[str, float]:
        """Mean per-rank seconds in each trace category."""
        agg: dict[str, float] = {}
        for tr in self.traces.values():
            for cat, t in tr.breakdown().items():
                agg[cat] = agg.get(cat, 0.0) + t
        n = max(1, len(self.traces))
        return {cat: t / n for cat, t in agg.items()}

    def communication_fraction(self) -> float:
        """Fraction of the mean rank time spent in p2p + collectives."""
        b = self.breakdown()
        comm = b.get("p2p", 0.0) + b.get("collective", 0.0)
        if self.elapsed <= 0:
            return 0.0
        return min(1.0, comm / self.elapsed)


class _RankDriver:
    """Interprets one rank's generator against the engine.

    A rank has at most one blocking operation outstanding (its generator
    is suspended until the resume fires), so the blocked-interval
    bookkeeping lives in plain attributes and the engine callbacks are
    two bound methods created once per driver — the executor's hottest
    paths allocate no per-event closures.
    """

    __slots__ = ("rank", "ex", "gen", "trace", "finish_time", "crashed",
                 "blocked_since", "_advance_cb", "_resume_cb",
                 "_block_t0", "_block_category", "_block_label",
                 "_wait_remaining")

    def __init__(self, rank: int, executor: "_Executor") -> None:
        self.rank = rank
        self.ex = executor
        self.gen = executor.job.program(rank, executor.placement.n_ranks)
        self.trace = RankTrace(rank)
        self.finish_time: float | None = None
        self.crashed = False
        self.blocked_since: float | None = None
        self._advance_cb = self._advance_none
        self._resume_cb = self._resume_blocked
        self._block_t0 = 0.0
        self._block_category = ""
        self._block_label = ""
        self._wait_remaining = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.ex.engine.schedule(0.0, self._advance_cb)

    def _advance_none(self) -> None:
        self._advance(None)

    def _begin_block(self, category: str, label: str = "") -> Callable[[], None]:
        """Record the start of a blocking wait; returns the resume callback."""
        self._block_t0 = self.ex.engine.now
        self._block_category = category
        self._block_label = label
        if self.ex.faults is not None:
            self.blocked_since = self._block_t0
        return self._resume_cb

    def _resume_blocked(self) -> None:
        """Record the blocked interval (if any time passed) and advance."""
        if self.ex.faults is not None:
            if self.crashed:
                return      # a late delivery reached a dead rank
            self.blocked_since = None
        now = self.ex.engine.now
        if now > self._block_t0:
            self.trace.add(self._block_t0, now, self._block_category,
                           self._block_label)
            if self.ex.perf is not None:
                self.ex.perf.on_wait(self.rank, self._block_category,
                                     self._block_label, self._block_t0, now)
        self._advance(None)

    # -- fault injection ------------------------------------------------
    def _die(self, now: float) -> None:
        """Stop this rank for good at ``now`` (injected crash)."""
        self.finish_time = now
        self.gen.close()

    def _crash(self) -> None:
        """Injected-crash event: kill the rank at the current time.

        A rank blocked in a wait dies immediately (the partial wait is
        attributed so time accounting stays conservation-exact); a rank
        mid-compute finishes the in-flight region and dies at the next
        operation boundary (see the guard in :meth:`_advance`).
        """
        if self.finish_time is not None:
            return          # already finished normally
        self.crashed = True
        self.ex.faults.stats.crashes += 1
        if self.blocked_since is not None:
            now = self.ex.engine.now
            if now > self._block_t0:
                self.trace.add(self._block_t0, now, self._block_category,
                               self._block_label)
                if self.ex.perf is not None:
                    self.ex.perf.on_wait(self.rank, self._block_category,
                                         self._block_label, self._block_t0,
                                         now)
            self.blocked_since = None
            self._die(now)

    def _advance(self, send_value) -> None:
        engine = self.ex.engine
        if self.ex.faults is not None and self.crashed:
            if self.finish_time is None:
                self._die(engine.now)
            return
        while True:
            try:
                op = self.gen.send(send_value)
            except StopIteration:
                self.finish_time = engine.now
                return
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"rank {self.rank} of job {self.ex.job.name!r}: {exc}"
                ) from exc
            send_value = None

            if isinstance(op, ops.Compute):
                timing = self.ex.time_compute(self.rank, op)
                t0 = engine.now
                cat = "serial" if op.serial else "compute"
                self.trace.add(t0, t0 + timing.seconds, cat, op.kernel)
                self.ex.total_flops += timing.flops
                self.ex.total_dram_bytes += timing.dram_bytes
                if self.ex.perf is not None:
                    self.ex.perf.on_compute(
                        self.rank, op, timing,
                        self.ex.compiled[op.kernel], t0)
                engine.schedule(timing.seconds, self._advance_cb)
                return

            if isinstance(op, ops.Sleep):
                t0 = engine.now
                self.trace.add(t0, t0 + op.seconds, "sleep", "sleep")
                if self.ex.perf is not None:
                    self.ex.perf.on_wait(self.rank, "sleep", "sleep",
                                         t0, t0 + op.seconds)
                engine.schedule(op.seconds, self._advance_cb)
                return

            if isinstance(op, (ops.FileRead, ops.FileWrite)):
                done_at = self.ex.storage_transfer(op.size_bytes)
                label = "read" if isinstance(op, ops.FileRead) else "write"
                self.trace.add(engine.now, done_at, "io", label)
                if self.ex.perf is not None:
                    self.ex.perf.on_wait(self.rank, "io", label,
                                         engine.now, done_at)
                engine.schedule_at(done_at, self._advance_cb)
                return

            if isinstance(op, ops.Isend):
                send_value = self.ex.mpi.post_send(self.rank, op)
                continue

            if isinstance(op, ops.Irecv):
                send_value = self.ex.mpi.post_recv(self.rank, op)
                continue

            if isinstance(op, ops.Send):
                req = self.ex.mpi.post_send(self.rank, op)
                req.on_complete(self._begin_block("p2p", f"send->{op.dst}"))
                return

            if isinstance(op, ops.Recv):
                req = self.ex.mpi.post_recv(self.rank, op)
                req.on_complete(self._begin_block("p2p", f"recv<-{op.src}"))
                return

            if isinstance(op, ops.Sendrecv):
                sreq = self.ex.mpi.post_send(
                    self.rank, ops.Isend(op.dst, op.send_tag, op.size_bytes)
                )
                rreq = self.ex.mpi.post_recv(
                    self.rank, ops.Irecv(op.src, op.recv_tag)
                )
                self._wait_many([sreq, rreq], "p2p", "sendrecv")
                return

            if isinstance(op, ops.WaitAll):
                reqs = list(op.requests)
                for r in reqs:
                    if not isinstance(r, Request):
                        raise SimulationError(
                            f"rank {self.rank}: WaitAll on a non-request {r!r}"
                        )
                self._wait_many(reqs, "p2p", "waitall")
                return

            if isinstance(op, ops.NONBLOCKING_COLLECTIVE_OPS):
                # yields the request back; completion via WaitAll
                send_value = self.ex.mpi.post_collective(self.rank, op)
                continue

            if isinstance(op, ops.COLLECTIVE_OPS):
                req = self.ex.mpi.post_collective(self.rank, op)
                req.on_complete(
                    self._begin_block("collective", type(op).__name__.lower())
                )
                return

            raise SimulationError(
                f"rank {self.rank} yielded an unknown operation: {op!r}"
            )

    def _wait_many(self, reqs: list[Request], category: str, label: str) -> None:
        remaining = sum(1 for r in reqs if not r.done)
        if remaining == 0:
            # nothing to wait for; continue immediately (still via the
            # engine to keep the event ordering deterministic)
            self.ex.engine.schedule(0.0, self._advance_cb)
            return
        self._begin_block(category, label)
        self._wait_remaining = remaining
        one_done = self._wait_one_done
        for r in reqs:
            if not r.done:
                r.on_complete(one_done)

    def _wait_one_done(self) -> None:
        self._wait_remaining -= 1
        if self._wait_remaining == 0:
            self._resume_blocked()


class _Executor:
    """One run's mutable state."""

    __slots__ = ("job", "placement", "engine", "mpi", "compiled",
                 "total_flops", "total_dram_bytes", "_storage_busy",
                 "io_bytes", "perf", "faults", "regions", "n_regions")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.placement = job.placement
        self.perf = job.perf_sink
        self.faults = None if job.fault_plan is None or job.fault_plan.empty \
            else job.fault_plan.bind()
        self.engine = Engine()
        self.mpi = SimMPI(self.engine, job.cluster, job.placement,
                          job.communicators, perf=job.perf_sink,
                          faults=self.faults)
        core = job.cluster.node.chips[0].domains[0].core
        compiler = Compiler(job.options)
        self.compiled: dict[str, CompiledKernel] = compiler.compile_many(
            job.kernels, core
        )
        self.total_flops = 0.0
        self.total_dram_bytes = 0.0
        self._storage_busy = 0.0
        self.io_bytes = 0.0
        #: (rank, op) -> unscaled timing.  Exact: the cluster, placement,
        #: data policy and compiled kernels are fixed for the run.
        self.regions: dict[tuple[int, ops.Compute], RegionTiming] = {}
        self.n_regions = 0

    def storage_transfer(self, size_bytes: float) -> float:
        """Completion time of one file transfer started now.

        The per-node channel bounds the client; the shared aggregate
        channel is arbitrated first-come-first-served across ranks.
        """
        spec = self.job.cluster.storage
        now = self.engine.now
        agg_start = max(now, self._storage_busy)
        self._storage_busy = agg_start + spec.aggregate_seconds(size_bytes)
        self.io_bytes += size_bytes
        return max(now + spec.transfer_seconds(size_bytes),
                   self._storage_busy + spec.open_latency_s)

    def time_compute(self, rank: int, op: ops.Compute) -> RegionTiming:
        self.n_regions += 1
        timing = self.regions.get((rank, op))
        if timing is None:
            try:
                ck = self.compiled[op.kernel]
            except KeyError:
                raise SimulationError(
                    f"rank {rank} references unregistered kernel "
                    f"{op.kernel!r}; known: {sorted(self.compiled)}"
                ) from None
            timing = self.regions[(rank, op)] = region_time(
                ck,
                op,
                self.placement.thread_cores(rank),
                self.job.cluster,
                self.placement.threads_per_domain,
                self.placement.home_domain(rank),
                self.job.data_policy,
            )
        # Slowdowns apply per call: a straggler window opens mid-run.
        if self.job.node_slowdown:
            factor = self.job.node_slowdown.get(
                self.placement.node_of(rank), 1.0)
            if factor != 1.0:
                timing = timing.scaled(factor)
        if self.faults is not None:
            factor = self.faults.compute_factor(rank, self.engine.now)
            if factor != 1.0:
                timing = timing.scaled(factor)
        return timing


def run_job(job: Job) -> RunResult:
    """Simulate ``job`` to completion and return the results.

    Raises
    ------
    DeadlockError
        If the event heap drains while some rank is still blocked (a real
        communication deadlock in the program).
    """
    ex = _Executor(job)
    if ex.perf is not None:
        ex.perf.begin_run(job)
    drivers = [
        _RankDriver(rank, ex) for rank in range(job.placement.n_ranks)
    ]
    if ex.faults is not None:
        # crashes are scheduled before the first advance, so a crash at
        # t=0 kills the rank before it executes a single operation
        for d in drivers:
            t = ex.faults.crash_time(d.rank)
            if t is not None:
                ex.engine.schedule_at(t, d._crash)
    for d in drivers:
        d.start()
    ex.engine.run()

    failed: tuple[int, ...] = ()
    stalled: tuple[int, ...] = ()
    if ex.faults is not None:
        failed = tuple(sorted(d.rank for d in drivers if d.crashed))
    unfinished = [d for d in drivers if d.finish_time is None]
    if unfinished:
        if ex.faults is None or not ex.faults.lossy:
            raise DeadlockError(
                f"ranks {[d.rank for d in unfinished]} never finished;\n"
                f"{ex.mpi.blocked_summary()}"
            )
        # Collateral of a lossy fault: ranks blocked forever on a crashed
        # peer or a dropped message.  Their clock stops where they
        # blocked, so per-rank attributed time still equals rank_finish.
        stalled = tuple(sorted(d.rank for d in unfinished))
        ex.faults.stats.stalled = len(stalled)
        for d in unfinished:
            d.finish_time = d.blocked_since if d.blocked_since is not None \
                else ex.engine.now

    # Lazy import: the runtime layer stays importable without the
    # observability package at module-load time.
    from repro import telemetry

    telemetry.count("executor.jobs")
    telemetry.count("executor.regions", ex.n_regions)
    telemetry.count("executor.region_hits", ex.n_regions - len(ex.regions))
    if failed or stalled:
        telemetry.count("executor.degraded")

    finish = {d.rank: float(d.finish_time) for d in drivers}
    result = RunResult(
        job_name=job.name,
        elapsed=max(finish.values()),
        traces={d.rank: d.trace for d in drivers},
        rank_finish=finish,
        total_flops=ex.total_flops,
        total_dram_bytes=ex.total_dram_bytes,
        messages_sent=ex.mpi.messages_sent,
        bytes_sent=ex.mpi.bytes_sent,
        placement_label=job.placement.describe(),
        io_bytes=ex.io_bytes,
        failed_ranks=failed,
        stalled_ranks=stalled,
        fault_stats=None if ex.faults is None else ex.faults.stats,
    )
    if ex.perf is not None:
        ex.perf.end_run(result)
    return result
