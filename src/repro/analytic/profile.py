"""Placement-independent communication/compute profiles of rank programs.

The analytic engine (:mod:`repro.analytic.engine`) scores a configuration
without interpreting its rank programs event by event.  What it needs from
the program is a *profile*: for every distinct class of ranks, the total
compute iterations per kernel group, the collectives entered, the
point-to-point exchange shapes, and the file/sleep volumes.  None of that
depends on the placement — only on ``(app, dataset, n_ranks)`` — so one
profile serves every (processor, threads, binding, allocation) point of a
sweep.

Two producers build profiles:

* each miniapp's ``rank_summary`` closed form (mirroring its skeleton's
  arithmetic without constructing a single op), assembled by
  :func:`profile_from_summaries`; and
* :func:`profile_from_replay`, which folds the traces
  :mod:`repro.runtime.replay` records of the real rank programs.  It is
  exact but ~1000x slower than the closed forms, so it serves as the
  fallback for apps without a closed form — and as the oracle the
  equivalence tests check the closed forms against.

Grouping compute regions by ``(kernel, schedule, serial, imbalance,
working_set_scale)`` and summing their iteration counts is *exact* with
respect to the event executor's arithmetic: region seconds are linear in
the iteration count for a fixed context, and the per-region fork/chunk
overheads are preserved via the group's ``regions`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.runtime.replay import COLL, COMPUTE, ICOLL, IRECV, ISEND, READ, \
    RECV, SEND, SENDRECV, SLEEP, WAITALL, WRITE, TracedRequest, \
    check_budget, op_kind, trace_rank


@dataclass(frozen=True)
class ComputeGroup:
    """All compute regions of one rank sharing a timing context.

    ``iters`` is the **total** iteration count across the ``regions``
    regions folded into the group (region time is linear in iterations,
    so the fold loses nothing); per-region fork/chunk overheads are
    re-applied ``regions`` times by the engine.
    """

    kernel: str
    iters: float
    regions: int
    schedule: str = "static"
    serial: bool = False
    imbalance: float = 1.0
    working_set_scale: float = 1.0


@dataclass(frozen=True)
class CollectiveGroup:
    """``count`` entries into one collective shape on one communicator."""

    kind: str            # op class name, lowercase ("allreduce", ...)
    size_bytes: float
    count: int
    comm: str = "world"


@dataclass(frozen=True)
class ExchangeGroup:
    """``count`` repetitions of one point-to-point exchange pattern.

    ``partners`` holds ``(offset, bytes)`` pairs — the rank-space offset
    ``(dst - rank) % n_ranks`` of each outgoing message and its payload
    (halo exchanges are symmetric, so the matching receive carries the
    same volume).  ``overlapped`` marks exchanges whose wait was covered
    by an interleaved parallel compute region (the skeletons' interior/
    boundary overlap pattern); the engine charges them no wait time.
    """

    partners: tuple[tuple[int, float], ...]
    count: int
    overlapped: bool = False


@dataclass(frozen=True)
class RankClass:
    """One equivalence class of ranks with identical per-rank behaviour."""

    rep_rank: int        # lowest rank of the class (placement lookups)
    n_ranks: int         # how many ranks share this behaviour
    compute: tuple[ComputeGroup, ...]
    collectives: tuple[CollectiveGroup, ...] = ()
    exchanges: tuple[ExchangeGroup, ...] = ()
    sleep_s: float = 0.0
    file_read_bytes: float = 0.0
    file_reads: int = 0
    file_write_bytes: float = 0.0
    file_writes: int = 0


@dataclass(frozen=True)
class AppProfile:
    """The full per-rank-class profile of one (app, dataset, n_ranks)."""

    app: str
    dataset: str
    n_ranks: int
    classes: tuple[RankClass, ...]

    def __post_init__(self) -> None:
        total = sum(c.n_ranks for c in self.classes)
        if total != self.n_ranks:
            raise SimulationError(
                f"profile {self.app}/{self.dataset}: rank classes cover "
                f"{total} ranks, expected {self.n_ranks}"
            )


class SummaryBuilder:
    """Accumulates one rank's profile; folds repeats into groups.

    The closed forms and the replay extractor both speak this API, so
    their outputs are structurally comparable.
    """

    __slots__ = ("n_ranks", "_compute", "_collectives", "_exchanges",
                 "sleep_s", "file_read_bytes", "file_reads",
                 "file_write_bytes", "file_writes")

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self._compute: dict[tuple, list] = {}
        self._collectives: dict[tuple, int] = {}
        self._exchanges: dict[tuple, int] = {}
        self.sleep_s = 0.0
        self.file_read_bytes = 0.0
        self.file_reads = 0
        self.file_write_bytes = 0.0
        self.file_writes = 0

    # ------------------------------------------------------------------
    def compute(self, kernel: str, iters: float, *, regions: int = 1,
                schedule: str = "static", serial: bool = False,
                imbalance: float = 1.0,
                working_set_scale: float = 1.0) -> None:
        if iters < 0 or regions < 0:
            raise SimulationError("compute group needs iters/regions >= 0")
        if regions == 0:
            return    # zero regions also ran zero iterations
        key = (kernel, schedule, serial, imbalance, working_set_scale)
        slot = self._compute.setdefault(key, [0.0, 0])
        slot[0] += iters
        slot[1] += regions

    def collective(self, kind: str, size_bytes: float, *,
                   comm: str = "world", count: int = 1) -> None:
        if count <= 0:
            return
        key = (kind, float(size_bytes), comm)
        self._collectives[key] = self._collectives.get(key, 0) + count

    def exchange(self, rank: int,
                 partners: Iterable[tuple[int, float]], *,
                 overlapped: bool = False, count: int = 1) -> None:
        """One exchange: ``partners`` is an iterable of (dst, bytes)."""
        if count <= 0:
            return
        offs = tuple(sorted(
            ((dst - rank) % self.n_ranks, float(nbytes))
            for dst, nbytes in partners
        ))
        if not offs:
            return
        key = (offs, overlapped)
        self._exchanges[key] = self._exchanges.get(key, 0) + count

    def sleep(self, seconds: float) -> None:
        self.sleep_s += seconds

    def file_read(self, size_bytes: float) -> None:
        self.file_read_bytes += size_bytes
        self.file_reads += 1

    def file_write(self, size_bytes: float) -> None:
        self.file_write_bytes += size_bytes
        self.file_writes += 1

    # ------------------------------------------------------------------
    def freeze(self, rep_rank: int) -> RankClass:
        compute = tuple(
            ComputeGroup(kernel=k[0], iters=v[0], regions=v[1],
                         schedule=k[1], serial=k[2], imbalance=k[3],
                         working_set_scale=k[4])
            for k, v in sorted(self._compute.items())
        )
        collectives = tuple(
            CollectiveGroup(kind=k[0], size_bytes=k[1], comm=k[2], count=n)
            for k, n in sorted(self._collectives.items())
        )
        exchanges = tuple(
            ExchangeGroup(partners=k[0], count=n, overlapped=k[1])
            for k, n in sorted(self._exchanges.items())
        )
        return RankClass(
            rep_rank=rep_rank, n_ranks=1, compute=compute,
            collectives=collectives, exchanges=exchanges,
            sleep_s=self.sleep_s,
            file_read_bytes=self.file_read_bytes,
            file_reads=self.file_reads,
            file_write_bytes=self.file_write_bytes,
            file_writes=self.file_writes,
        )


def _class_signature(cls: RankClass) -> tuple:
    """Equality key of a rank class, ignoring identity fields."""
    return (cls.compute, cls.collectives, cls.exchanges, cls.sleep_s,
            cls.file_read_bytes, cls.file_reads, cls.file_write_bytes,
            cls.file_writes)


def _cluster_classes(app: str, dataset: str, n_ranks: int,
                     per_rank: list[RankClass]) -> AppProfile:
    """Fold per-rank classes (one per rank) into distinct classes."""
    seen: dict[tuple, int] = {}
    classes: list[RankClass] = []
    for cls in per_rank:
        sig = _class_signature(cls)
        idx = seen.get(sig)
        if idx is None:
            seen[sig] = len(classes)
            classes.append(cls)
        else:
            classes[idx] = replace(classes[idx],
                                   n_ranks=classes[idx].n_ranks + 1)
    return AppProfile(app=app, dataset=dataset, n_ranks=n_ranks,
                      classes=tuple(classes))


def profile_from_summaries(app: str, dataset: str, n_ranks: int,
                           summary_fn: Callable[[int, SummaryBuilder],
                                                None]) -> AppProfile:
    """Build a profile from a closed-form per-rank summary function.

    ``summary_fn(rank, builder)`` fills a :class:`SummaryBuilder` with
    rank ``rank``'s behaviour using plain arithmetic.
    """
    per_rank = []
    for rank in range(n_ranks):
        b = SummaryBuilder(n_ranks)
        summary_fn(rank, b)
        per_rank.append(b.freeze(rank))
    return _cluster_classes(app, dataset, n_ranks, per_rank)


# ----------------------------------------------------------------------
# replay-based extraction (exact fallback + closed-form oracle)
# ----------------------------------------------------------------------
def _replay_rank(factory: Callable[[int, int], Any], rank: int,
                 n_ranks: int, job: str) -> SummaryBuilder:
    """Fold one rank's replayed trace into a summary without simulating
    time.

    Outgoing ``Isend`` volumes are kept in a pending ledger: the
    skeletons wait only on their receive requests (sends are posted
    fire-and-forget), and by halo symmetry a rank's own send volumes
    mirror the incoming messages its ``WaitAll`` actually blocks on.
    """
    b = SummaryBuilder(n_ranks)
    trace = trace_rank(factory, rank, n_ranks)
    check_budget(trace, job)
    last_parallel_compute = -1
    pending_sends: list[tuple[int, int, float]] = []   # (index, dst, bytes)
    for index, (op, kind) in enumerate(zip(trace.values, trace.kinds)):
        if kind == COMPUTE:
            b.compute(op.kernel, op.iters, schedule=op.schedule,
                      serial=op.serial, imbalance=op.imbalance,
                      working_set_scale=op.working_set_scale)
            if not op.serial:
                last_parallel_compute = index
        elif kind == SLEEP:
            b.sleep(op.seconds)
        elif kind == READ:
            b.file_read(op.size_bytes)
        elif kind == WRITE:
            b.file_write(op.size_bytes)
        elif kind == ISEND:
            pending_sends.append((index, op.dst, op.size_bytes))
        elif kind == IRECV:
            pass                        # completes in the WaitAll below
        elif kind == SENDRECV:
            b.exchange(rank, [(op.dst, op.size_bytes)])
        elif kind == SEND or kind == RECV:
            raise SimulationError(
                f"rank {rank}: blocking {type(op).__name__} has no "
                f"analytic model; use Isend/Irecv + WaitAll"
            )
        elif kind == WAITALL:
            if any(type(t) is not TracedRequest for t in op.requests):
                raise SimulationError(
                    f"rank {rank}: WaitAll on a non-request during replay"
                )
            posts = [t.op_index for t in op.requests
                     if op_kind(t.op) != ICOLL]
            posts.extend(i for i, _, _ in pending_sends)
            if pending_sends:
                overlapped = min(posts) <= last_parallel_compute
                b.exchange(rank,
                           [(dst, sz) for _, dst, sz in pending_sends],
                           overlapped=overlapped)
                pending_sends.clear()
        elif kind == ICOLL:
            b.collective(type(op).__name__.lower().lstrip("i"),
                         op.size_bytes, comm=op.comm)
        elif kind == COLL:
            b.collective(type(op).__name__.lower(), op.size_bytes,
                         comm=op.comm)
        else:
            raise SimulationError(
                f"rank {rank} yielded an unknown operation during replay: "
                f"{op!r}"
            )
    if trace.error is not None:
        raise trace.error
    return b


def profile_from_replay(app: str, dataset: str,
                        factory: Callable[[int, int], Any],
                        n_ranks: int) -> AppProfile:
    """Exact profile by symbolic replay of every rank's generator."""
    job = f"{app}/{dataset}"
    per_rank = [
        _replay_rank(factory, rank, n_ranks, job).freeze(rank)
        for rank in range(n_ranks)
    ]
    return _cluster_classes(app, dataset, n_ranks, per_rank)
