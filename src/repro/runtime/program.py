"""Operation vocabulary for rank programs.

A *rank program* is a Python generator that yields these operations; the
executor interprets them against the machine model.  The convention mirrors
mpi4py: lower-level buffer semantics are expressed as byte counts (the
simulator moves time, not data).

Example — a 1D halo-exchange step::

    def rank_program(rank: int, size: int):
        left, right = (rank - 1) % size, (rank + 1) % size
        for _ in range(n_steps):
            yield Compute("stencil", iters=local_cells)
            r1 = yield Irecv(src=left, tag=0)
            r2 = yield Irecv(src=right, tag=1)
            yield Isend(dst=right, tag=0, size_bytes=halo)
            yield Isend(dst=left, tag=1, size_bytes=halo)
            yield WaitAll([r1, r2])
            yield Allreduce(size_bytes=8)

``Irecv``/``Isend`` yield back a request handle; ``WaitAll`` blocks on them.
A ``Send`` below the network's rendezvous threshold completes immediately
(eager buffering); at or above it, the send completes at delivery —
matching real MPI's protocol split, so large cyclic blocking sends
deadlock just as they eventually do on real machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

#: Wildcard source for Recv/Irecv.
ANY_SOURCE = -1

#: Largest portable MPI tag (the standard guarantees at least this much
#: headroom in ``MPI_TAG_UB``); the static analyzer warns above it.
MAX_PORTABLE_TAG = 32767


def describe_op(op) -> str:
    """Render an op as ``Name(field=value, ...)`` for error messages.

    Falls back to ``repr`` for non-dataclass values (e.g. a stray object a
    buggy program yielded).
    """
    try:
        parts = ", ".join(
            f"{f.name}={getattr(op, f.name)!r}" for f in fields(op)
        )
    except TypeError:
        return repr(op)
    return f"{type(op).__name__}({parts})"


def _fail(op, field: str, value, requirement: str) -> None:
    """Raise a ConfigurationError naming the op, the field, and the value."""
    raise ConfigurationError(
        f"{type(op).__name__}: {field}={value!r} {requirement} "
        f"in {describe_op(op)}"
    )


def _check_size(op, size_bytes: float, field: str = "size_bytes") -> None:
    if not math.isfinite(size_bytes):
        _fail(op, field, size_bytes, "must be finite")
    if size_bytes < 0:
        _fail(op, field, size_bytes, "must be non-negative")


def _check_tag(op, tag: int, field: str = "tag") -> None:
    if tag < 0:
        _fail(op, field, tag, "must be non-negative")


@dataclass(frozen=True)
class Compute:
    """An OpenMP-parallel compute region over a named kernel.

    ``kernel`` refers to a kernel registered with the job; ``iters`` is the
    total iteration count of the region for this rank (the OpenMP model
    splits it over the rank's threads).  ``serial=True`` runs on the master
    thread only (Amdahl regions).  ``imbalance`` is the max/mean thread-work
    ratio for statically unbalanced loops (1.0 = perfectly balanced).
    """

    kernel: str
    iters: float
    schedule: str = "static"
    serial: bool = False
    imbalance: float = 1.0
    working_set_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.iters < 0 or not math.isfinite(self.iters):
            _fail(self, "iters", self.iters, "must be finite and non-negative")
        if self.schedule not in ("static", "dynamic", "guided"):
            _fail(self, "schedule", self.schedule,
                  "must be one of 'static', 'dynamic', 'guided'")
        if self.imbalance < 1.0:
            _fail(self, "imbalance", self.imbalance,
                  "is a max/mean ratio and must be >= 1")
        if self.working_set_scale <= 0:
            _fail(self, "working_set_scale", self.working_set_scale,
                  "must be positive")


@dataclass(frozen=True)
class Sleep:
    """A fixed-duration phase (a library call outside the model)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0 or not math.isfinite(self.seconds):
            _fail(self, "seconds", self.seconds,
                  "must be finite and non-negative")


@dataclass(frozen=True)
class FileRead:
    """Read ``size_bytes`` from the shared parallel filesystem."""

    size_bytes: float

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)


@dataclass(frozen=True)
class FileWrite:
    """Write ``size_bytes`` to the shared parallel filesystem."""

    size_bytes: float

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)


# ----------------------------------------------------------------------
# point-to-point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    """Blocking send (synchronous semantics)."""

    dst: int
    tag: int
    size_bytes: float

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)
        _check_tag(self, self.tag)


@dataclass(frozen=True)
class Recv:
    """Blocking receive; ``src`` may be :data:`ANY_SOURCE`."""

    src: int
    tag: int

    def __post_init__(self) -> None:
        _check_tag(self, self.tag)


@dataclass(frozen=True)
class Isend:
    """Non-blocking send; yields a request handle."""

    dst: int
    tag: int
    size_bytes: float

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)
        _check_tag(self, self.tag)


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive; yields a request handle."""

    src: int
    tag: int

    def __post_init__(self) -> None:
        _check_tag(self, self.tag)


@dataclass(frozen=True)
class WaitAll:
    """Block until every request handle in ``requests`` has completed."""

    requests: tuple

    def __init__(self, requests) -> None:
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True)
class Sendrecv:
    """Combined send+receive (the classic halo-exchange primitive)."""

    dst: int
    send_tag: int
    size_bytes: float
    src: int
    recv_tag: int

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)
        _check_tag(self, self.send_tag, "send_tag")
        _check_tag(self, self.recv_tag, "recv_tag")


# ----------------------------------------------------------------------
# collectives — all ranks of the communicator must yield the same op
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Collective:
    size_bytes: float = 0.0
    comm: str = "world"

    def __post_init__(self) -> None:
        _check_size(self, self.size_bytes)


@dataclass(frozen=True)
class Barrier(_Collective):
    pass


@dataclass(frozen=True)
class Bcast(_Collective):
    root: int = 0


@dataclass(frozen=True)
class Reduce(_Collective):
    root: int = 0


@dataclass(frozen=True)
class Allreduce(_Collective):
    pass


@dataclass(frozen=True)
class Allgather(_Collective):
    """``size_bytes`` is the per-rank contribution."""


@dataclass(frozen=True)
class Alltoall(_Collective):
    """``size_bytes`` is the total per-rank send volume (sum over peers)."""


@dataclass(frozen=True)
class Gather(_Collective):
    root: int = 0


@dataclass(frozen=True)
class Scatter(_Collective):
    root: int = 0


@dataclass(frozen=True)
class IAllreduce(_Collective):
    """Non-blocking allreduce: yields a request; wait with ``WaitAll``.

    Lets solvers pipeline global reductions under compute (the
    communication-avoiding CG/BiCGStab variants)."""


@dataclass(frozen=True)
class IBarrier(_Collective):
    """Non-blocking barrier: yields a request."""


@dataclass(frozen=True)
class ReduceScatter(_Collective):
    """``size_bytes`` is the total reduced vector (each rank keeps 1/p)."""


@dataclass(frozen=True)
class Scan(_Collective):
    """Inclusive prefix reduction."""


#: Blocking collectives (the issuing rank waits for completion).
COLLECTIVE_OPS = (Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall,
                  Gather, Scatter, ReduceScatter, Scan)

#: Non-blocking collectives (yield a request; complete via WaitAll).
NONBLOCKING_COLLECTIVE_OPS = (IAllreduce, IBarrier)


# ----------------------------------------------------------------------
# introspection hooks (used by the static analyzer and error reporting;
# each op is classified once, when repro.runtime.replay records it)
# ----------------------------------------------------------------------
def collective_root(op) -> int | None:
    """The rooted collective's root rank, or None for unrooted ones."""
    return getattr(op, "root", None)
