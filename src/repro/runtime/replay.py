"""Replay of rank programs into classified, columnar traces.

A rank program is a generator of ops (:mod:`repro.runtime.program`).
:func:`trace_rank` is the one place that steps it: every yielded op is
recorded in order, without advancing simulated time, and ops that yield
a request handle get a :class:`TracedRequest` token sent back, so
``r = yield Irecv(...)`` / ``yield WaitAll([r])`` round-trips.  Control
flow in rank programs never depends on *received values* (receives carry
no payload in this simulator), so the replayed op stream is exactly the
stream the simulation issues.  A program is replayed once per run: the
static analyzer checks the traces, and the executor walks them.

Every traced op gets a small integer *kind*, assigned once here from its
class, which every consumer dispatches on.  A trace stores its ops,
kinds and request handles as parallel columns.  A program that raises
stops the replay there, and the trace keeps the exception: the executor
raises it when its walk reaches that op, the analyzer reports it.
Every replay stops at an op budget (:data:`DEFAULT_MAX_OPS` per rank):
the analyzer warns about a truncated trace, a run refuses it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import SimulationError
from repro.runtime import program as ops

#: Per-rank op budget of every replay (a while-True program would
#: otherwise replay, and grow memory, without end).
DEFAULT_MAX_OPS = 1_000_000

#: Op kinds.  ``COMPUTE`` through ``WRITE`` carry no MPI semantics;
#: ``ISEND`` through ``ICOLL`` are exactly the kinds that yield a
#: request handle; ``UNKNOWN`` is a yielded value the executor rejects.
(COMPUTE, SLEEP, READ, WRITE, ISEND, IRECV, ICOLL, SEND, RECV, SENDRECV,
 WAITALL, COLL, UNKNOWN) = range(13)

_KIND_CLASSES = (
    (ops.Compute, COMPUTE), (ops.Sleep, SLEEP), (ops.FileRead, READ),
    (ops.FileWrite, WRITE), (ops.Isend, ISEND), (ops.Irecv, IRECV),
    (ops.NONBLOCKING_COLLECTIVE_OPS, ICOLL), (ops.Send, SEND),
    (ops.Recv, RECV), (ops.Sendrecv, SENDRECV), (ops.WaitAll, WAITALL),
    (ops.COLLECTIVE_OPS, COLL),
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
    """The request handle replay sends back for op ``op_index``."""

    __slots__ = ("rank", "op_index", "op")

    def __init__(self, rank: int, op_index: int, op: Any) -> None:
        self.rank = rank
        self.op_index = op_index
        self.op = op

    def describe(self) -> str:
        return f"request of {ops.describe_op(self.op)} (op #{self.op_index})"

    def __repr__(self) -> str:      # diagnostics render WaitAll ops with it
        return f"<TracedRequest rank={self.rank} {self.describe()}>"


class ProgramTrace:
    """Everything one rank's replay produced, stored by column.

    ``values[i]`` is the i-th yielded op, ``kinds[i]`` its kind and
    ``requests[i]`` the handle replay sent back for it (request kinds
    only).
    """

    __slots__ = ("rank", "values", "kinds", "requests", "error",
                 "truncated")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.values: list[Any] = []
        self.kinds: list[int] = []
        self.requests: dict[int, TracedRequest] = {}
        #: What the program raised instead of yielding op
        #: ``len(values)``; replay stops there.
        self.error: Exception | None = None
        #: True when the op budget cut the replay short.
        self.truncated = False


def trace_rank(factory: Callable[[int, int], Iterator], rank: int,
               n_ranks: int) -> ProgramTrace:
    """Replay one rank's program, at most :data:`DEFAULT_MAX_OPS` ops of
    it, into a :class:`ProgramTrace`."""
    trace = ProgramTrace(rank)
    values, requests = trace.values, trace.requests
    add_value, add_kind = values.append, trace.kinds.append
    kinds = _kinds
    first, last = ISEND, ICOLL          # the kinds that yield a request
    budget = DEFAULT_MAX_OPS
    try:
        gen = factory(rank, n_ranks)
        send_value = None
        index = 0
        while True:
            try:
                op = gen.send(send_value)
            except StopIteration:
                break
            if index >= budget:
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
    except Exception as exc:  # noqa: BLE001 - kept for the consumer
        trace.error = exc
    return trace


def trace_program(factory: Callable[[int, int], Iterator], n_ranks: int
                  ) -> dict[int, ProgramTrace]:
    """Replay every rank; returns rank -> :class:`ProgramTrace`."""
    return {rank: trace_rank(factory, rank, n_ranks)
            for rank in range(n_ranks)}


def check_budget(trace: ProgramTrace, job: str) -> None:
    """Raise :class:`~repro.errors.SimulationError` if the op budget cut
    ``trace`` short: a prefix of a program cannot drive a run."""
    if trace.truncated:
        raise SimulationError(
            f"rank {trace.rank} of job {job!r}: replay stopped at the op "
            f"budget (DEFAULT_MAX_OPS = {len(trace.values)} ops)")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while traces are alive.

    A trace is tens of thousands of acyclic records that all die by
    reference count when their consumer returns; left on, the collector
    walks and promotes them, then walks the whole heap in full
    collections that can free none of them.  As a decorator
    (``@collector_paused()``) it pauses for each call, and the call's
    locals are gone before the collector resumes.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
