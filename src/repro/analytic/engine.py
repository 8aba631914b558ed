"""Batched closed-form scoring of sweep configurations.

Instead of replaying rank programs event by event, the analytic engine
scores each config of a batch from memo tables:

1. **placement tables** (:class:`_PlacementTable`) — per rank, the
   thread count and the NUMA contexts its threads occupy with their
   bandwidth shares, and the communicator profiles: everything that
   depends only on the placement, shared by every app, data set and
   preset scored on it;
2. **group criticals** (:func:`_group_critical`) — the slowest context
   of one compute group under the roofline
   ``T_iter = max(T_compute, T_L1, T_L2, T_DRAM) + T_gather_latency``;
3. per-group worst-context folds, the analytic communication terms
   (LogGP collectives via :func:`repro.runtime.collectives.collective_time`,
   point-to-point waits via :meth:`Cluster.transfer_time`), and the
   storage model produce the same :class:`~repro.core.runner.Row` fields
   the event executor emits.

The per-iteration constants are obtained by calling the *event engine's
own* ``phase_time`` with unit iteration count and unit bandwidth shares,
so the two engines share one arithmetic by construction; what the
analytic engine drops is event-level dynamics — fault injection, message
protocol stalls (NIC serialization, torus contention, eager/rendezvous),
arrival skew at synchronization points, and storage contention between
ranks.  Those need ``engine="event"`` (see DESIGN.md).

Determinism: scoring is pure float arithmetic over deterministically
ordered profiles, summed left to right, so repeated runs are bit-identical.

Assumes homogeneous nodes (every NUMA domain identical), which the
placement layer already enforces and every cataloged cluster satisfies:
per-iteration constants are evaluated once on domain (0, 0) and reused
for every context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro import telemetry
from repro.analytic.profile import AppProfile, ComputeGroup, RankClass
from repro.compile.compiler import CompiledKernel, Compiler
from repro.compile.options import PRESETS
from repro.core.experiment import ExperimentConfig
from repro.core.runner import Row
from repro.errors import ConfigurationError, EngineDisagreement, SimulationError
from repro.kernels.timing import phase_time
from repro.machine import catalog
from repro.machine.topology import Cluster
from repro.miniapps import by_name
from repro.names import ENGINES
from repro.runtime import program as ops
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.runtime.collectives import (
    CommProfile,
    collective_time,
    profile_communicator,
)
from repro.runtime.openmp import _thread_iters, fork_join_overhead
from repro.runtime.placement import JobPlacement

#: Agreement tolerances of the seeded sim-vs-analytic cross-validation.
#: The analytic model's largest divergence is synchronization skew it
#: cannot see (ranks arriving at collectives/waits at different times).
#: Calibrated 2026-08 over every processor x every miniapp plus
#: serial-init, stride/scatter bindings, multi-node allocations, and
#: compiler presets: worst observed deviation 1.8% on elapsed/gflops
#: (ffvc/large on 2 nodes, cyclic allocation).  10% leaves ~5x headroom
#: while still catching real model drift (see DESIGN.md).
ELAPSED_RTOL = 0.10
GFLOPS_RTOL = 0.10

#: Configs the ``auto`` engine re-simulates per sweep.
AUTO_SAMPLE_SIZE = 3

_COLLECTIVE_CLASSES = {
    "barrier": ops.Barrier,
    "bcast": ops.Bcast,
    "reduce": ops.Reduce,
    "allreduce": ops.Allreduce,
    "allgather": ops.Allgather,
    "alltoall": ops.Alltoall,
    "gather": ops.Gather,
    "scatter": ops.Scatter,
    "reducescatter": ops.ReduceScatter,
    "scan": ops.Scan,
}


def check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine


# ----------------------------------------------------------------------
# memoized model inputs (all keyed on hashable config fields)
# ----------------------------------------------------------------------
#: One NUMA context of a rank's threads: ``(L2 working-set shrink,
#: l2_share, mem_share)``.
Context = tuple[float, float, float]
#: A rank's thread count and its NUMA contexts, in domain order.
RankContexts = tuple[int, tuple[Context, ...]]
#: The critical context of one compute group: ``(t_iter, DRAM bytes per
#: iteration there, flops per iteration, context index)``.
Critical = tuple[float, float, float, int]


@lru_cache(maxsize=64)
def _cluster(processor: str, n_nodes: int) -> Cluster:
    return catalog.by_name(processor, n_nodes=n_nodes)


@lru_cache(maxsize=256)
def _compiled(app: str, dataset: str, preset: str,
              processor: str) -> dict[str, CompiledKernel]:
    """Compiled kernel set, lowered for the executor's compile target."""
    cluster = _cluster(processor, 1)
    app_obj = by_name(app)
    ds = app_obj.dataset(dataset)
    core = cluster.node.chips[0].domains[0].core
    return Compiler(PRESETS[preset]).compile_many(app_obj.kernels(ds), core)


@lru_cache(maxsize=512)
def _profile(app: str, dataset: str, n_ranks: int) -> AppProfile:
    app_obj = by_name(app)
    return app_obj.analytic_profile(app_obj.dataset(dataset), n_ranks)


@lru_cache(maxsize=256)
def _communicator_ranks(app: str,
                        n_ranks: int) -> dict[str, tuple[int, ...]]:
    members = {"world": tuple(range(n_ranks))}
    extra = by_name(app).communicators(n_ranks)
    if extra:
        members.update(extra)
    return members


@lru_cache(maxsize=8192)
def _phase_consts(app: str, dataset: str, preset: str, processor: str,
                  kernel: str, ws_scale: float
                  ) -> tuple[float, float, float, float, float,
                             float, float]:
    """Per-iteration ECM constants of one kernel on one processor.

    Returned as ``(t_compute, t_l1, l2_num, dram_num, t_latency,
    dram_bytes, flops)`` where the context-dependent terms divide the
    numerators by the context's bandwidth share:
    ``t_l2 = l2_num / l2_share`` and ``t_dram = dram_num / mem_share``.
    Produced by the event engine's own ``phase_time`` at unit iteration
    count and unit shares, so the arithmetic cannot drift between
    engines.
    """
    try:
        ck = _compiled(app, dataset, preset, processor)[kernel]
    except KeyError:
        raise SimulationError(
            f"{app}/{dataset} references unregistered kernel {kernel!r}"
        ) from None
    dom = _cluster(processor, 1).node.chips[0].domains[0]
    pt = phase_time(
        ck, 1.0, dom.core, dom.l1d, dom.l2,
        mem_bandwidth_share=1.0, l2_bandwidth_share=1.0,
        mem_latency_s=dom.memory.latency_s,
        working_set_scale=ws_scale,
    )
    c = pt.components
    return (c["compute"], c["l1"], c["l2"], c["dram"], c["latency"],
            pt.dram_bytes, pt.flops)


@lru_cache(maxsize=1024)
def _interned(value: RankContexts) -> RankContexts:
    """One shared copy per distinct value: a design grid has thousands of
    rank-context entries but a few dozen distinct values."""
    return value


class _PlacementTable:
    """Placement-only terms of one ``(processor, n_nodes, n_ranks,
    n_threads, allocation, binding)`` point.

    Filled on first use and shared by every app, data set and preset
    scored on the placement: rank contexts keyed by ``(data_policy,
    rep_rank, serial)`` and communicator profiles keyed by the member
    ranks.  Both are bounded by the placement's size and go with the
    table when :func:`_placement_table` evicts it.
    """

    __slots__ = ("cluster", "placement", "_contexts", "_comm_profiles")

    def __init__(self, cluster: Cluster, placement: JobPlacement) -> None:
        self.cluster = cluster
        self.placement = placement
        self._contexts: dict[tuple[str, int, bool], RankContexts] = {}
        self._comm_profiles: dict[tuple[int, ...], CommProfile] = {}

    def contexts(self, data_policy: str, rep_rank: int,
                 serial: bool) -> RankContexts:
        """Thread count and NUMA contexts of one rank's region threads
        (the master thread only for a ``serial`` region)."""
        key = (data_policy, rep_rank, serial)
        hit = self._contexts.get(key)
        if hit is not None:
            return hit
        cluster, placement = self.cluster, self.placement
        census = placement.threads_per_domain
        addrs = placement.thread_cores(rep_rank)
        if serial:
            addrs = addrs[:1]
        home_key = placement.home_domain(rep_rank)
        home_bw = cluster.node.chips[home_key[1]].domains[home_key[2]] \
            .memory.per_stream_bandwidth(max(1, census.get(home_key, 1)))
        # the rank's own thread count in each domain it occupies
        # (shared-L2 footprint scale)
        here: dict[tuple[int, int, int], int] = {}
        for a in addrs:
            k = (a.node, a.chip, a.domain)
            here[k] = here.get(k, 0) + 1
        contexts: list[Context] = []
        for k, n_here in sorted(here.items()):
            dom = cluster.node.chips[k[1]].domains[k[2]]
            active = max(1, census.get(k, 1))
            shrink = max(0.3, 1.0 / n_here ** 0.5) \
                if dom.l2.shared and n_here > 1 else 1.0
            # serial-init: data lives in the master thread's home domain
            mem = home_bw * cluster.node.chips[k[1]].remote_access_fraction \
                if data_policy == "serial-init" and k != home_key \
                else dom.memory.per_stream_bandwidth(active)
            contexts.append((shrink, dom.l2_bandwidth_share(active), mem))
        hit = self._contexts[key] = _interned((len(addrs), tuple(contexts)))
        return hit

    def comm_profile(self, members: tuple[int, ...]) -> CommProfile:
        prof = self._comm_profiles.get(members)
        if prof is None:
            thread_cores = self.placement.thread_cores
            prof = self._comm_profiles[members] = profile_communicator(
                self.cluster, tuple(thread_cores(r)[0] for r in members))
        return prof


@lru_cache(maxsize=1024)
def _placement_table(processor: str, n_nodes: int, n_ranks: int,
                     n_threads: int, allocation: ProcessAllocation,
                     binding: ThreadBinding) -> _PlacementTable:
    cluster = _cluster(processor, n_nodes)
    return _PlacementTable(cluster, JobPlacement(
        cluster, n_ranks, n_threads, allocation=allocation, binding=binding))


@lru_cache(maxsize=8192)
def _group_critical(app: str, dataset: str, preset: str, processor: str,
                    kernel: str, ws_scale: float,
                    contexts: tuple[Context, ...]) -> Critical:
    """The slowest NUMA context of one compute group.

    ``t_iter = max(max(t_compute, t_l1), max(l2_num / l2_share,
    dram_num / mem_share)) + t_latency`` per context; the first of equal
    contexts wins.  Flops per iteration, which depend on neither share,
    are read from the last context.
    """
    best_t, best_dram, best_j, flops = 0.0, 0.0, -1, 0.0
    for j, (shrink, l2_share, mem_share) in enumerate(contexts):
        t_comp, t_l1, l2_num, dram_num, t_lat, dram_it, flops = \
            _phase_consts(app, dataset, preset, processor, kernel,
                          ws_scale * shrink)
        t = max(max(t_comp, t_l1),
                max(l2_num / l2_share, dram_num / mem_share)) + t_lat
        if best_j < 0 or t > best_t:
            best_t, best_dram, best_j = t, dram_it, j
    return best_t, best_dram, flops, best_j


@lru_cache(maxsize=2048)
def _collective_s(kind: str, size_bytes: float, p: int,
                  prof: CommProfile) -> float:
    try:
        op_cls = _COLLECTIVE_CLASSES[kind]
    except KeyError:
        raise SimulationError(
            f"no analytic model for collective {kind!r}"
        ) from None
    return collective_time(op_cls(size_bytes=size_bytes), p, prof)


_MEMOS = (_cluster, _compiled, _profile, _communicator_ranks,
          _phase_consts, _interned, _placement_table, _group_critical,
          _collective_s)


def clear_memos() -> None:
    """Drop every engine memo (tests monkeypatching the catalog use this)."""
    for fn in _MEMOS:
        fn.cache_clear()


# ----------------------------------------------------------------------
# per-group and per-class terms (shared by the scorer and the breakdown)
# ----------------------------------------------------------------------
def _group_cost(kernels: tuple[str, str, str, str], ctx: RankContexts,
                g: ComputeGroup) -> tuple[float, float, Critical]:
    """Seconds of one compute group on its critical context, the
    fork/join + chunk overhead share of them, and the critical context
    (:func:`_group_critical`) of the ``(app, dataset, preset,
    processor)`` kernel set."""
    n_threads, contexts = ctx
    unit_max, chunk_s = _thread_iters(1.0, n_threads, g.schedule,
                                      g.imbalance)
    per_region = chunk_s if g.serial else \
        fork_join_overhead(n_threads, len(contexts)) + chunk_s
    overhead_s = per_region * g.regions
    crit = _group_critical(*kernels, g.kernel, g.working_set_scale, contexts)
    return crit[0] * (unit_max * g.iters) + overhead_s, overhead_s, crit


def _class_comm(table: _PlacementTable, cls: RankClass, n_ranks: int,
                comm_ranks: dict[str, tuple[int, ...]]
                ) -> tuple[float, list[float]]:
    """Collective + p2p wait time of one rank class, and its items.

    One item per collective group and one per non-overlapped exchange,
    in that order; the total is their left-to-right sum.  Labels are
    :func:`config_breakdown`'s, off the scoring path.
    """
    placement, cluster = table.placement, table.cluster
    rep_addr = placement.thread_cores(cls.rep_rank)[0]
    items: list[float] = []
    for g in cls.collectives:
        try:
            members = comm_ranks[g.comm]
        except KeyError:
            raise SimulationError(
                f"profile references unknown communicator {g.comm!r}"
            ) from None
        items.append(g.count * _collective_s(
            g.kind, g.size_bytes, len(members), table.comm_profile(members)))
    for ex in cls.exchanges:
        if ex.overlapped:
            continue    # wait hidden under the interleaved compute
        wait = 0.0
        for offset, nbytes in ex.partners:
            dst_addr = placement.thread_cores(
                (cls.rep_rank + offset) % n_ranks)[0]
            wait = max(wait,
                       cluster.transfer_time(rep_addr, dst_addr, nbytes))
        items.append(ex.count * wait)
    total = 0.0
    for s in items:
        total += s
    return total, items


def _class_other(cluster: Cluster, cls: RankClass) -> float:
    """Sleep + file I/O seconds of one rank class."""
    storage = cluster.storage
    io_ops = cls.file_reads + cls.file_writes
    io_bytes = cls.file_read_bytes + cls.file_write_bytes
    return (cls.sleep_s + io_ops * storage.open_latency_s
            + io_bytes / storage.per_node_bandwidth)


def _model(config: ExperimentConfig) -> tuple[
        _PlacementTable, AppProfile, dict[str, tuple[int, ...]],
        tuple[str, str, str, str]]:
    """Placement table, profile, communicators and kernel-set key of one
    config, looked up in the order their errors take precedence."""
    table = _placement_table(config.processor, config.n_nodes,
                             config.n_ranks, config.n_threads,
                             config.allocation, config.binding)
    return (table, _profile(config.app, config.dataset, config.n_ranks),
            _communicator_ranks(config.app, config.n_ranks),
            (config.app, config.dataset, config.options_preset,
             config.processor))


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------
def score_configs(configs: list[ExperimentConfig]
                  ) -> list[Row | Exception]:
    """Score a batch of configs; returns a Row or Exception per config.

    Exceptions (bad decompositions, unknown kernels, placement errors)
    are captured per config so one broken point cannot sink a batch —
    callers decide whether to raise or record them.
    """
    with telemetry.span("score.analytic.batch", configs=len(configs)):
        results: list[Row | Exception] = []
        for config in configs:
            try:
                results.append(_score(config))
            except Exception as exc:  # noqa: BLE001 - per-config capture
                results.append(exc)
        return results


def _score(config: ExperimentConfig) -> Row:
    table, profile, comm_ranks, kernels = _model(config)
    policy = config.data_policy
    elapsed = total_flops = total_dram = comm_ranks_s = 0.0
    for cls in profile.classes:
        compute_s = flops = dram = 0.0
        for g in cls.compute:
            seconds, _, crit = _group_cost(
                kernels, table.contexts(policy, cls.rep_rank, g.serial), g)
            compute_s += seconds
            # work accounting mirrors the event engine: DRAM volume of
            # the critical context, FLOPs of the full iteration count
            dram += crit[1] * g.iters
            flops += crit[2] * g.iters
        comm_s = _class_comm(table, cls, config.n_ranks, comm_ranks)[0]
        elapsed = max(elapsed,
                      compute_s + comm_s + _class_other(table.cluster, cls))
        total_flops += cls.n_ranks * flops
        total_dram += cls.n_ranks * dram
        comm_ranks_s += cls.n_ranks * comm_s
    comm_mean = comm_ranks_s / config.n_ranks
    return Row(
        config=config,
        elapsed=elapsed,
        gflops=(total_flops / elapsed / 1e9) if elapsed > 0 else 0.0,
        dram_gbytes_per_s=(total_dram / elapsed / 1e9)
        if elapsed > 0 else 0.0,
        comm_fraction=min(1.0, comm_mean / elapsed)
        if elapsed > 0 else 0.0,
        engine="analytic",
    )


def score_config(config: ExperimentConfig) -> Row:
    """Score one config analytically; raises on failure."""
    out = score_configs([config])[0]
    if isinstance(out, Exception):
        raise out
    return out


# ----------------------------------------------------------------------
# itemized cost breakdown (the static advisor's data source)
# ----------------------------------------------------------------------
#: ECM pipeline phases of the roofline max (latency is additive on top).
ECM_PHASES = ("compute", "l1", "l2", "dram")


@dataclass(frozen=True)
class GroupCost:
    """Closed-form cost of one compute group on its critical context."""

    class_idx: int
    kernel: str
    schedule: str
    serial: bool
    iters: float            # total iterations across threads
    regions: int            # parallel regions per group execution
    contexts: int           # distinct NUMA domains the threads span
    seconds: float          # worst-context time incl. fork/join overhead
    overhead_s: float       # fork/join + chunk overhead share of seconds
    iter_s: float           # critical-context seconds per iteration
    bound: str              # dominant phase: compute|l1|l2|dram|latency
    per_iter: dict[str, float]  # phase -> critical-context seconds/iter

    @property
    def memory_bound(self) -> bool:
        """Off-core bound (same cut as counter rooflines)."""
        return self.bound in ("l2", "dram", "latency")


@dataclass(frozen=True)
class ClassCost:
    """Per-step time of one rank equivalence class, itemized."""

    class_idx: int
    rep_rank: int
    n_ranks: int
    compute_s: float
    comm_s: float
    other_s: float          # sleep + file I/O
    comm_items: tuple[tuple[str, float], ...]

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.other_s


@dataclass(frozen=True)
class ConfigBreakdown:
    """Itemized closed-form cost model of one configuration.

    The same per-group and per-class terms the scorer folds into a
    single :class:`~repro.core.runner.Row`, kept apart: per-group ECM
    phase times on the critical thread context, per-class communication
    items, and the class totals whose max is the elapsed time.  This is
    what the static advisor (:mod:`repro.analysis.advisor`) reasons
    over — by construction every number it cites is the scoring
    engine's own.
    """

    config: ExperimentConfig
    classes: tuple[ClassCost, ...]
    groups: tuple[GroupCost, ...]
    elapsed: float

    @property
    def critical_class(self) -> ClassCost:
        """The class whose total sets the elapsed time."""
        return max(self.classes, key=lambda c: c.total_s)

    def class_groups(self, class_idx: int) -> list[GroupCost]:
        return [g for g in self.groups if g.class_idx == class_idx]


def config_breakdown(config: ExperimentConfig) -> ConfigBreakdown:
    """Model one config and keep the per-group/per-class terms apart.

    Raises the same exceptions as :func:`score_config` (placement,
    decomposition, unknown-kernel errors); never runs the event
    executor.
    """
    table, profile, comm_ranks, kernels = _model(config)
    classes: list[ClassCost] = []
    groups: list[GroupCost] = []
    for class_idx, cls in enumerate(profile.classes):
        compute_s = 0.0
        for g in cls.compute:
            ctx = table.contexts(config.data_policy, cls.rep_rank, g.serial)
            seconds, overhead_s, (iter_s, _, _, j) = _group_cost(
                kernels, ctx, g)
            compute_s += seconds
            shrink, l2_share, mem_share = ctx[1][j]
            t_comp, t_l1, l2_num, dram_num, t_lat, _, _ = _phase_consts(
                *kernels, g.kernel, g.working_set_scale * shrink)
            per_iter = {
                "compute": t_comp, "l1": t_l1,
                "l2": l2_num / l2_share, "dram": dram_num / mem_share,
                "latency": t_lat,
            }
            bound = max(ECM_PHASES, key=per_iter.__getitem__)
            if per_iter["latency"] > per_iter[bound]:
                bound = "latency"
            groups.append(GroupCost(
                class_idx=class_idx, kernel=g.kernel, schedule=g.schedule,
                serial=g.serial, iters=g.iters, regions=g.regions,
                contexts=len(ctx[1]), seconds=seconds,
                overhead_s=overhead_s, iter_s=iter_s, bound=bound,
                per_iter=per_iter,
            ))
        comm_s, items = _class_comm(table, cls, config.n_ranks, comm_ranks)
        labels = [f"{g.kind}[{g.comm}] x{g.count} @{g.size_bytes}B"
                  for g in cls.collectives] + \
            [f"p2p exchange x{ex.count} ({len(ex.partners)} partners)"
             for ex in cls.exchanges if not ex.overlapped]
        classes.append(ClassCost(
            class_idx=class_idx, rep_rank=cls.rep_rank, n_ranks=cls.n_ranks,
            compute_s=compute_s, comm_s=comm_s,
            other_s=_class_other(table.cluster, cls),
            comm_items=tuple(zip(labels, items)),
        ))
    elapsed = max((c.total_s for c in classes), default=0.0)
    return ConfigBreakdown(config=config, classes=tuple(classes),
                           groups=tuple(groups), elapsed=elapsed)


# ----------------------------------------------------------------------
# sim-vs-analytic cross-validation (the ``auto`` engine's gate)
# ----------------------------------------------------------------------
def validation_sample(name: str, n: int,
                      sample_size: int = AUTO_SAMPLE_SIZE) -> list[int]:
    """Deterministic config indices to re-simulate for a named sweep.

    Seeding ``random.Random`` with a string hashes it through SHA-512,
    so the sample is stable across processes and Python versions.
    """
    if n <= 0:
        return []
    rng = random.Random(f"repro-auto:{name}:{n}")
    return sorted(rng.sample(range(n), min(sample_size, n)))


def check_agreement(config: ExperimentConfig, analytic: Row,
                    event: Row) -> None:
    """Raise :class:`EngineDisagreement` if the rows differ beyond
    tolerance on ``elapsed`` or ``gflops``."""
    for attr, tol in (("elapsed", ELAPSED_RTOL), ("gflops", GFLOPS_RTOL)):
        a = getattr(analytic, attr)
        e = getattr(event, attr)
        rel = abs(a - e) / max(abs(e), 1e-30)
        if rel > tol:
            raise EngineDisagreement(
                f"engines disagree on {attr} for {config.label()}: "
                f"analytic {a:.6g} vs event {e:.6g} "
                f"({rel:.1%} > {tol:.0%} tolerance)",
                config=config, analytic=analytic, event=event,
            )


def cross_validate(name: str, configs: list[ExperimentConfig],
                   analytic_rows: list[Row | Exception], cache: Any = None,
                   *, sample_size: int = AUTO_SAMPLE_SIZE
                   ) -> list[tuple[ExperimentConfig, Row, Row]]:
    """Re-simulate a seeded sample with the event engine and compare.

    Returns the checked ``(config, analytic_row, event_row)`` triples;
    raises :class:`EngineDisagreement` on the first violation (or a
    sampled event run's exception).  The sample runs ungated through
    :func:`~repro.core.parallel.run_configs`, and its event rows land
    in ``cache``, so the cross-check also warms the event cache.
    """
    from repro.core.parallel import run_configs

    picked = [(configs[i], analytic_rows[i])
              for i in validation_sample(name, len(configs), sample_size)]
    pairs = [(config, row) for config, row in picked
             if isinstance(row, Row)]
    event_rows = run_configs([config for config, _ in pairs], cache=cache,
                             engine="event")
    checked = []
    for (config, row_a), row_e in zip(pairs, event_rows):
        if isinstance(row_e, Exception):
            raise row_e
        check_agreement(config, row_a, row_e)
        checked.append((config, row_a, row_e))
    return checked
