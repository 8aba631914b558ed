"""Run rank programs on the machine model.

:func:`run_job` is the single entry point the miniapps and experiments use:
it compiles the job's kernels for the target core, takes each rank's
program replayed once (:mod:`repro.runtime.replay`), and walks the op
trace against the event engine, the simulated MPI layer, and the OpenMP
region model, dispatching on the kind replay assigned each op.
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
from repro.runtime.replay import COLL, COMPUTE, ICOLL, IRECV, ISEND, READ, \
    RECV, SEND, SENDRECV, SLEEP, WAITALL, WRITE, ProgramTrace, \
    TracedRequest, check_budget, collector_paused, trace_program
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
            plan, n = self.fault_plan, self.placement.n_ranks
            named = [spec.rank for spec in (*plan.crashes, *plan.stragglers)]
            named += [rank for fault in plan.message_faults
                      for rank in (fault.src, fault.dst) if rank is not None]
            for rank in named:
                if not 0 <= rank < n:
                    raise ConfigurationError(
                        f"fault plan names rank {rank}, but the job "
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
    """Walks one rank's replayed trace against the engine.

    The walk dispatches on the kind of op ``next`` of the trace's
    columns.  A rank has at most one blocking operation outstanding (its
    walk is suspended until the resume fires), so the blocked-interval
    bookkeeping lives in plain attributes and the engine callbacks are
    two bound methods created once per driver — the executor's hottest
    paths allocate no per-event closures.
    """

    __slots__ = ("rank", "ex", "program", "next", "posted", "trace",
                 "finish_time", "crashed", "blocked_since", "_advance_cb",
                 "_resume_cb", "_block_t0", "_block_category", "_block_label",
                 "_wait_remaining")

    def __init__(self, rank: int, executor: "_Executor",
                 program: ProgramTrace) -> None:
        self.rank = rank
        self.ex = executor
        self.program = program
        self.next = 0
        #: column index -> the Request its ISEND/IRECV/ICOLL op created
        self.posted: dict[int, Request] = {}
        self.trace = RankTrace(rank)
        self.finish_time: float | None = None
        self.crashed = False
        self.blocked_since: float | None = None
        self._advance_cb = self._advance
        self._resume_cb = self._resume_blocked
        self._block_t0 = 0.0
        self._block_category = ""
        self._block_label = ""
        self._wait_remaining = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.ex.engine.schedule(0.0, self._advance_cb)

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
        self._advance()

    # -- fault injection ------------------------------------------------
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
            self.finish_time = now

    def _advance(self) -> None:
        """Issue ops from ``next`` on until one takes simulated time."""
        ex = self.ex
        engine = ex.engine
        if ex.faults is not None and self.crashed:
            if self.finish_time is None:
                self.finish_time = engine.now
            return
        rank, mpi = self.rank, ex.mpi
        values, kinds = self.program.values, self.program.kinds
        while True:
            index = self.next
            if index == len(kinds):
                if self.program.error is not None:
                    self._raise_error()
                self.finish_time = engine.now
                return
            # stored before issuing: a wait that is already complete
            # resumes this walk re-entrantly
            self.next = index + 1
            op = values[index]
            kind = kinds[index]

            if kind == COMPUTE:
                timing = ex.time_compute(rank, op)
                t0 = engine.now
                cat = "serial" if op.serial else "compute"
                self.trace.add(t0, t0 + timing.seconds, cat, op.kernel)
                ex.total_flops += timing.flops
                ex.total_dram_bytes += timing.dram_bytes
                if ex.perf is not None:
                    ex.perf.on_compute(rank, op, timing,
                                       ex.compiled[op.kernel], t0)
                engine.schedule(timing.seconds, self._advance_cb)
                return

            if kind == ISEND:
                self.posted[index] = mpi.post_send(rank, op)
            elif kind == IRECV:
                self.posted[index] = mpi.post_recv(rank, op)
            elif kind == ICOLL:
                self.posted[index] = mpi.post_collective(rank, op)
            elif kind == WAITALL:
                reqs = []
                for token in op.requests:
                    if type(token) is not TracedRequest or token.rank != rank:
                        raise SimulationError(
                            f"rank {rank}: WaitAll on a non-request {token!r}"
                        )
                    reqs.append(self.posted[token.op_index])
                self._wait_many(reqs, "p2p", "waitall")
                return
            elif kind == COLL:
                mpi.post_collective(rank, op).on_complete(
                    self._begin_block("collective", type(op).__name__.lower()))
                return
            elif kind == SEND:
                mpi.post_send(rank, op).on_complete(
                    self._begin_block("p2p", f"send->{op.dst}"))
                return
            elif kind == RECV:
                mpi.post_recv(rank, op).on_complete(
                    self._begin_block("p2p", f"recv<-{op.src}"))
                return
            elif kind == SENDRECV:
                sreq = mpi.post_send(
                    rank, ops.Isend(op.dst, op.send_tag, op.size_bytes))
                rreq = mpi.post_recv(rank, ops.Irecv(op.src, op.recv_tag))
                self._wait_many([sreq, rreq], "p2p", "sendrecv")
                return
            elif kind == SLEEP:
                t0 = engine.now
                self.trace.add(t0, t0 + op.seconds, "sleep", "sleep")
                if ex.perf is not None:
                    ex.perf.on_wait(rank, "sleep", "sleep",
                                    t0, t0 + op.seconds)
                engine.schedule(op.seconds, self._advance_cb)
                return
            elif kind == READ or kind == WRITE:
                done_at = ex.storage_transfer(op.size_bytes)
                label = "read" if kind == READ else "write"
                self.trace.add(engine.now, done_at, "io", label)
                if ex.perf is not None:
                    ex.perf.on_wait(rank, "io", label, engine.now, done_at)
                engine.schedule_at(done_at, self._advance_cb)
                return
            else:
                raise SimulationError(
                    f"rank {rank} yielded an unknown operation: {op!r}"
                )

    def _raise_error(self) -> None:
        """Raise what the program raised where the walk now stands."""
        error = self.program.error
        if isinstance(error, ConfigurationError):
            raise ConfigurationError(
                f"rank {self.rank} of job {self.ex.job.name!r}: {error}"
            ) from error
        raise error

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


@collector_paused()
def run_job(job: Job,
            traces: dict[int, ProgramTrace] | None = None) -> RunResult:
    """Simulate ``job`` to completion and return the results.

    ``traces`` are the job's rank programs, already replayed in full
    (rank -> :class:`~repro.runtime.replay.ProgramTrace`, as the lint
    gate hands them over); ``None`` replays ``job.program`` here.

    Raises
    ------
    SimulationError
        If a rank's replay stopped at the op budget
        (:data:`~repro.runtime.replay.DEFAULT_MAX_OPS`).
    DeadlockError
        If the event heap drains while some rank is still blocked (a real
        communication deadlock in the program).
    """
    ex = _Executor(job)
    if ex.perf is not None:
        ex.perf.begin_run(job)
    n_ranks = job.placement.n_ranks
    if traces is None:
        traces = trace_program(job.program, n_ranks)
    for trace in traces.values():
        check_budget(trace, job.name)
    drivers = [_RankDriver(rank, ex, traces[rank]) for rank in range(n_ranks)]
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
    for d in drivers:
        # each driver's callbacks are its own bound methods: drop them so
        # the drivers and their traces die by reference count, not by a
        # full cyclic collection
        d._advance_cb = d._resume_cb = None

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
