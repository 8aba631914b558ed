"""Symbolic replay of rank programs.

The analyzer's input is the same generator the executor interprets — but
replayed *without* advancing simulated time: every yielded op is recorded
in order, and ops that would yield a request handle get a
:class:`TracedRequest` token sent back, so ``r = yield Irecv(...)`` /
``yield WaitAll([r])`` round-trips exactly as it does under the real
executor.  Control flow in the shipped skeletons never depends on
*received values* (receives carry no payload in this simulator), so the
replayed op stream is the exact stream the simulation would issue.

A program that raises during replay — a :class:`ConfigurationError` from
an op constructor, a decomposition failure, an ``IndexError`` in user
code — becomes a per-rank failure diagnostic instead of an exception, so
one broken rank cannot hide findings on the others.

Every traced op gets a small integer *kind*, assigned once here from its
class; the structure checks and the deadlock scheduler dispatch on it
instead of re-running ``isinstance`` chains per op and per check.  A
trace stores its ops, kinds and request handles as parallel columns, so
replay allocates nothing per op beyond what the program itself yields.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.errors import ReproError
from repro.runtime import program as ops

#: Per-rank op budget: a guard against unbounded generators (a while-True
#: program would otherwise hang the analyzer, not the simulation).
DEFAULT_MAX_OPS = 1_000_000

#: Op kinds.  ``COMPUTE`` and ``LOCAL`` carry no MPI semantics; ``ISEND``
#: through ``ICOLL`` are exactly the kinds that yield a request handle;
#: ``UNKNOWN`` is a yielded value the executor would reject.
(COMPUTE, LOCAL, ISEND, IRECV, ICOLL, SEND, RECV, SENDRECV, WAITALL, COLL,
 UNKNOWN) = range(11)

_KIND_CLASSES = (
    (ops.Compute, COMPUTE), (ops.LOCAL_OPS, LOCAL), (ops.Isend, ISEND),
    (ops.Irecv, IRECV), (ops.NONBLOCKING_COLLECTIVE_OPS, ICOLL),
    (ops.Send, SEND), (ops.Recv, RECV), (ops.Sendrecv, SENDRECV),
    (ops.WaitAll, WAITALL), (ops.COLLECTIVE_OPS, COLL),
)

#: op class -> kind, filled on first sight of each class
_kinds: dict[type, int] = {}


def op_kind(op: Any) -> int:
    """The kind of one yielded value (subclasses take their base's)."""
    cls = type(op)
    kind = _kinds.get(cls)
    if kind is None:
        kind = next((k for classes, k in _KIND_CLASSES
                     if isinstance(op, classes)), UNKNOWN)
        _kinds[cls] = kind
    return kind


class TracedRequest:
    """Stand-in for the runtime's request handle during replay."""

    __slots__ = ("rank", "op_index", "op")

    def __init__(self, rank: int, op_index: int, op: Any) -> None:
        self.rank = rank
        self.op_index = op_index
        self.op = op

    def describe(self) -> str:
        return f"request of {ops.describe_op(self.op)} (op #{self.op_index})"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<TracedRequest rank={self.rank} {self.describe()}>"


class TracedOp:
    """One recorded (rank, index, op) with its kind and replay request,
    if any: a row of a :class:`ProgramTrace`."""

    __slots__ = ("rank", "index", "op", "kind", "request")

    def __init__(self, rank: int, index: int, op: Any, kind: int,
                 request: TracedRequest | None) -> None:
        self.rank = rank
        self.index = index
        self.op = op
        self.kind = kind
        self.request = request

    def describe(self) -> str:
        return ops.describe_op(self.op)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<TracedOp rank={self.rank} #{self.index} {self.describe()}>"


class ProgramTrace:
    """Everything one rank's replay produced, stored by column.

    ``values[i]`` is the i-th yielded op, ``kinds[i]`` its kind and
    ``requests[i]`` the handle replay sent back for it (request kinds
    only).  The checks read the columns; :attr:`ops` rebuilds the rows.
    """

    __slots__ = ("rank", "values", "kinds", "requests", "failure",
                 "truncated")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.values: list[Any] = []
        self.kinds: list[int] = []
        self.requests: dict[int, TracedRequest] = {}
        #: Diagnostic when the generator raised; replay stops there.
        self.failure: Diagnostic | None = None
        #: True when the op budget cut the replay short.
        self.truncated = False

    @property
    def ops(self) -> list[TracedOp]:
        """The trace as :class:`TracedOp` rows, in program order."""
        requests = self.requests
        return [TracedOp(self.rank, i, op, kind, requests.get(i))
                for i, (op, kind) in enumerate(zip(self.values, self.kinds))]


def trace_rank(factory: Callable[[int, int], Iterator], rank: int,
               n_ranks: int, max_ops: int = DEFAULT_MAX_OPS) -> ProgramTrace:
    """Replay one rank's program into a :class:`ProgramTrace`."""
    trace = ProgramTrace(rank)
    values, requests = trace.values, trace.requests
    add_value, add_kind = values.append, trace.kinds.append
    kinds = _kinds
    first, last = ISEND, ICOLL          # the kinds that yield a request
    try:
        gen = factory(rank, n_ranks)
        send_value = None
        index = 0
        while True:
            try:
                op = gen.send(send_value)
            except StopIteration:
                break
            if index >= max_ops:
                trace.truncated = True
                gen.close()
                break
            kind = kinds.get(type(op))
            if kind is None:
                kind = op_kind(op)
            if first <= kind <= last:
                send_value = requests[index] = TracedRequest(rank, index, op)
            else:
                send_value = None
            add_value(op)
            add_kind(kind)
            index += 1
    except ReproError as exc:
        trace.failure = Diagnostic(
            check="program-config", severity="error",
            rank=rank, op_index=len(values),
            message=f"program raised {type(exc).__name__}: {exc}",
            hint="fix the rank program or the dataset parameters; the "
                 "simulation would fail at the same point",
        )
    except Exception as exc:  # noqa: BLE001 - surface user-code crashes
        trace.failure = Diagnostic(
            check="program-crash", severity="error",
            rank=rank, op_index=len(values),
            message=f"program crashed with {type(exc).__name__}: {exc}",
            hint="the rank program has a Python bug that would also kill "
                 "the simulation",
        )
    return trace


def trace_program(factory: Callable[[int, int], Iterator], n_ranks: int,
                  max_ops: int = DEFAULT_MAX_OPS) -> dict[int, ProgramTrace]:
    """Replay every rank; returns rank -> :class:`ProgramTrace`."""
    return {rank: trace_rank(factory, rank, n_ranks, max_ops)
            for rank in range(n_ranks)}
