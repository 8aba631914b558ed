"""Static structure checks over traced rank programs, in one walk.

:func:`check_traces` visits every traced op exactly once, dispatching on
the kind :func:`~repro.runtime.replay.trace_rank` assigned it, and
reports findings in five groups, in this order:

* **programs** — what a rank's program raised during replay, op-budget
  truncation, values the executor would reject outright;
* **domains** — rank/tag domain validity of every op (what the runtime
  raises ``CommunicatorError`` for, found before the run);
* **requests** — request-handle hygiene (waits on non-requests, double
  waits, receives never waited);
* **point-to-point matching** — send/receive counts per (destination,
  tag) channel, honoring ``ANY_SOURCE`` wildcards;
* **collectives** — congruence: every member of a communicator must
  issue the same collective sequence (type and root).

Kernel references (every ``Compute`` names a registered kernel, on every
rank) are gathered in the same walk but returned apart, because the
analyzer reports them after the deadlock search.

Order-dependent problems (a cyclic rendezvous send, a wildcard receive
stealing another receive's message) are the symbolic scheduler's job —
see :mod:`repro.analysis.deadlock`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from typing import Collection

from repro.analysis.diagnostics import Diagnostic
from repro.errors import ReproError
from repro.runtime import program as ops
from repro.runtime.program import describe_op
from repro.runtime.replay import (
    COLL,
    COMPUTE,
    ICOLL,
    IRECV,
    ISEND,
    RECV,
    SEND,
    SENDRECV,
    UNKNOWN,
    WAITALL,
    ProgramTrace,
    TracedRequest,
)

Traces = dict[int, ProgramTrace]

ANY_SOURCE = ops.ANY_SOURCE
MAX_TAG = ops.MAX_PORTABLE_TAG


def check_traces(traces: Traces, n_ranks: int,
                 communicators: dict[str, tuple[int, ...]],
                 kernels: Collection[str] | None = None,
                 ) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """(structure findings, kernel-reference findings) of the traces.

    ``kernels`` is the job's registered kernel names; ``None`` skips the
    kernel-reference check (a bare program has no kernel table).
    """
    programs: list[Diagnostic] = []
    domains: list[Diagnostic] = []
    requests: list[Diagnostic] = []
    kernel_refs: list[Diagnostic] = []
    seen_kernels: set[str] = set()
    # (dst, tag, src) -> op indices on the posting rank, in posting order
    # (a send's rank is src, a receive's dst; a receive's src may be
    # ANY_SOURCE).  Invalid endpoints carry a p2p-invalid-* error and are
    # left out.
    sends: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    recvs: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    members_of = {name: frozenset(m) for name, m in communicators.items()}
    # comm -> rank -> op indices of the member's collectives on it
    sequences: dict[str, dict[int, list[int]]] = {
        name: defaultdict(list) for name in communicators}

    for trace in traces.values():
        rank = trace.rank
        if trace.error is not None:
            programs.append(_program_error(trace))
        if trace.truncated:
            n_ops = len(trace.values)
            programs.append(Diagnostic(
                check="program-budget", severity="warning",
                rank=rank, op_index=n_ops,
                message=f"rank {rank} exceeded the analyzer's op budget "
                        f"({n_ops} ops traced); checks cover the traced "
                        f"prefix only",
                hint="raise repro.runtime.replay.DEFAULT_MAX_OPS, or "
                     "check the program for an unbounded loop",
            ))

        def bad_peer(index: int, role: str, peer: int) -> None:
            if peer == rank:
                msg = f"rank {rank} {role}s to itself"
                hint = ("guard the exchange for undecomposed axes "
                        "(skip when the neighbour is the rank itself)")
            else:
                msg = (f"rank {rank} {role}s to invalid rank {peer} "
                       f"(job has ranks 0..{n_ranks - 1})")
                hint = ("fix the neighbour computation or the rank-grid "
                        "mapping")
            domains.append(_at(trace, index, f"p2p-invalid-{role}", msg,
                               hint))

        def tag_range(index: int, tag: int) -> None:
            domains.append(_at(
                trace, index, "p2p-tag-range",
                f"tag {tag} exceeds the portable MPI tag upper bound "
                f"({MAX_TAG})",
                "derive tags from small per-phase constants", "warning"))

        waits: dict[int, int] = {}          # id(request) -> wait count
        posted: list[int] = []              # receive-side request ops
        values = trace.values
        for index, kind in enumerate(trace.kinds):
            op = values[index]
            if kind == COMPUTE:
                if kernels is not None and op.kernel not in kernels and \
                        op.kernel not in seen_kernels:
                    # the runtime would fail mid-run with SimulationError
                    seen_kernels.add(op.kernel)
                    kernel_refs.append(_at(
                        trace, index, "unknown-kernel",
                        f"Compute references unregistered kernel "
                        f"{op.kernel!r}",
                        f"registered kernels: {sorted(kernels)}"))
            elif kind == ISEND or kind == SEND:
                dst = op.dst
                if 0 <= dst < n_ranks and dst != rank:
                    sends[dst, op.tag, rank].append(index)
                else:
                    bad_peer(index, "send", dst)
                if op.tag > MAX_TAG:
                    tag_range(index, op.tag)
            elif kind == IRECV or kind == RECV:
                src = op.src
                if src == ANY_SOURCE or (0 <= src < n_ranks and src != rank):
                    recvs[rank, op.tag, src].append(index)
                else:
                    bad_peer(index, "recv", src)
                if op.tag > MAX_TAG:
                    tag_range(index, op.tag)
                if kind == IRECV:
                    posted.append(index)
            elif kind == WAITALL:
                for item in op.requests:
                    if type(item) is TracedRequest and item.rank == rank \
                            and id(item) not in waits:
                        waits[id(item)] = 1     # the common first wait
                    else:
                        finding = _wait(trace, index, item, waits)
                        if finding is not None:
                            requests.append(finding)
            elif kind == COLL or kind == ICOLL:
                if kind == ICOLL:
                    posted.append(index)
                comm = op.comm
                members = members_of.get(comm)
                if members is None:
                    domains.append(_at(
                        trace, index, "collective-unknown-comm",
                        f"collective on unknown communicator {comm!r}",
                        f"known communicators: {sorted(communicators)}"))
                    continue
                if rank in members:
                    sequences[comm][rank].append(index)
                else:
                    domains.append(_at(
                        trace, index, "collective-nonmember",
                        f"rank {rank} issues a collective on {comm!r} but "
                        f"is not a member (members: "
                        f"{list(communicators[comm])})",
                        "guard the collective by communicator membership"))
                root = ops.collective_root(op)
                if root is not None and root not in members:
                    domains.append(_at(
                        trace, index, "collective-bad-root",
                        f"root {root} is not a member of communicator "
                        f"{comm!r}",
                        f"pick a root among {list(communicators[comm])}"))
            elif kind == SENDRECV:
                dst, src = op.dst, op.src
                if 0 <= dst < n_ranks and dst != rank:
                    sends[dst, op.send_tag, rank].append(index)
                else:
                    bad_peer(index, "send", dst)
                if src == ANY_SOURCE or (0 <= src < n_ranks and src != rank):
                    recvs[rank, op.recv_tag, src].append(index)
                else:
                    bad_peer(index, "recv", src)
                if op.send_tag > MAX_TAG:
                    tag_range(index, op.send_tag)
                if op.recv_tag > MAX_TAG:
                    tag_range(index, op.recv_tag)
            elif kind == UNKNOWN:
                programs.append(Diagnostic(
                    check="unknown-op", severity="error",
                    rank=rank, op_index=index, op=repr(op),
                    message=f"rank {rank} yielded a value the executor "
                            f"does not understand",
                    hint="yield only operations from repro.runtime.program",
                ))
        # receives posted but never waited: the program uses data it has
        # no completion guarantee for (sends may legitimately be
        # fire-and-forget under eager/rendezvous completion).
        for index in posted:
            request = trace.requests[index]
            if id(request) not in waits:
                requests.append(_at(
                    trace, index, "request-unwaited",
                    f"rank {rank} never waits on the {request.describe()}",
                    "add the request to a WaitAll before using the "
                    "received data", "warning"))

    return (programs + domains + requests
            + _match_p2p(traces, sends, recvs)
            + _congruence(traces, communicators, sequences), kernel_refs)


def _program_error(trace: ProgramTrace) -> Diagnostic:
    """The finding for what ``trace``'s program raised during replay."""
    exc = trace.error
    name = type(exc).__name__
    if isinstance(exc, ReproError):
        check, message, hint = "program-config", f"raised {name}", (
            "fix the rank program or the dataset parameters; the "
            "simulation would fail at the same point")
    else:
        check, message, hint = "program-crash", f"crashed with {name}", (
            "the rank program has a Python bug that would also kill the "
            "simulation")
    return Diagnostic(check=check, severity="error", rank=trace.rank,
                      op_index=len(trace.values),
                      message=f"program {message}: {exc}", hint=hint)


def _at(trace: ProgramTrace, index: int, check: str, message: str,
        hint: str, severity: str = "error") -> Diagnostic:
    """A finding anchored to op ``index`` of ``trace``."""
    return Diagnostic(check=check, severity=severity, rank=trace.rank,
                      op_index=index, op=describe_op(trace.values[index]),
                      message=message, hint=hint)


def _wait(trace: ProgramTrace, index: int, item: object,
          waits: dict[int, int]) -> Diagnostic | None:
    """Count one item the WaitAll at ``index`` waits on; a finding when
    the wait is suspect."""
    if not isinstance(item, TracedRequest):
        return _at(trace, index, "waitall-non-request",
                   f"WaitAll on a non-request value {item!r}",
                   "capture the handle: `r = yield Irecv(...)`; blocking "
                   "ops (Send/Recv) yield no handle")
    if item.rank != trace.rank:
        return _at(trace, index, "request-foreign",
                   f"WaitAll on a request owned by rank {item.rank}",
                   "requests are rank-local; wait where the op was posted")
    count = waits[id(item)] = waits.get(id(item), 0) + 1
    if count == 2:
        return _at(trace, index, "request-double-wait",
                   f"rank {trace.rank} waits twice on the "
                   f"{item.describe()}",
                   "drop the request from the second WaitAll", "warning")
    return None


# ----------------------------------------------------------------------
# point-to-point count matching per (destination, tag) channel
# ----------------------------------------------------------------------
def _match_p2p(traces: Traces,
               sends: dict[tuple[int, int, int], list[int]],
               recvs: dict[tuple[int, int, int], list[int]],
               ) -> list[Diagnostic]:
    """Count-match sends against receives per (dst, tag) channel.

    Specific-source receives are matched against their source's sends
    first; ``ANY_SOURCE`` receives then absorb leftover sends of the same
    (dst, tag).  Matching specific receives first is optimal (a wildcard
    can absorb anything a specific receive can), so leftovers are genuine
    count mismatches, independent of posting order.
    """
    out: list[Diagnostic] = []
    for (dst, tag), chan in groupby(sorted(sends.keys() | recvs.keys()),
                                    key=lambda k: k[:2]):
        leftovers: list[tuple[int, int]] = []   # unmatched (src, index)
        wild: list[int] = []
        for key in chan:
            src = key[2]
            if src == ANY_SOURCE:           # sorts first in its channel
                wild = recvs[key]
                continue
            chan_sends = sends.get(key, ())
            chan_recvs = recvs.get(key, ())
            n_send, n_recv = len(chan_sends), len(chan_recvs)
            if n_send == n_recv:
                continue
            matched = min(n_send, n_recv)
            leftovers.extend((src, i) for i in chan_sends[matched:])
            for index in chan_recvs[matched:]:
                out.append(_at(
                    traces[dst], index, "p2p-unmatched-recv",
                    f"rank {dst} receives from rank {src} tag {tag}, but "
                    f"rank {src} posts no matching send (channel has "
                    f"{n_send} send(s) for {n_recv} receive(s))",
                    f"post a matching send on rank {src} or drop the "
                    f"receive"))
        absorbed = min(len(wild), len(leftovers))
        for src, index in leftovers[absorbed:]:
            out.append(_at(
                traces[src], index, "p2p-unmatched-send",
                f"rank {src} sends to rank {dst} tag {tag}, but rank "
                f"{dst} posts no matching receive",
                f"post a matching Recv/Irecv on rank {dst} or drop the "
                f"send"))
        for index in wild[absorbed:]:
            out.append(_at(
                traces[dst], index, "p2p-unmatched-recv",
                f"rank {dst} receives (ANY_SOURCE) tag {tag}, but no "
                f"unconsumed send targets rank {dst} with that tag",
                "post a matching send or drop the wildcard receive"))
    return out


# ----------------------------------------------------------------------
# collective congruence
# ----------------------------------------------------------------------
def _congruence(traces: Traces,
                communicators: dict[str, tuple[int, ...]],
                sequences: dict[str, dict[int, list[int]]],
                ) -> list[Diagnostic]:
    """All members of a communicator must issue the same collective
    sequence: same length, same op types, same roots.

    Per-rank ``size_bytes`` may differ (the simulator models per-rank
    contributions and costs the maximum), so sizes are *not* checked.
    """
    out: list[Diagnostic] = []
    for name, members in sorted(communicators.items()):
        issued = sequences[name]
        seqs = {rank: issued.get(rank, []) for rank in members
                if rank in traces}
        if not seqs:
            continue

        def collectives(rank: int) -> list:
            values = traces[rank].values
            return [values[i] for i in seqs[rank]]

        reference_rank = min(seqs)
        reference = collectives(reference_rank)
        for rank in sorted(seqs):
            if rank == reference_rank:
                continue
            seq = collectives(rank)
            divergence = _first_divergence(reference, seq)
            if divergence is None:
                continue
            pos, kind = divergence
            if kind == "count":
                shorter, longer = (rank, reference_rank) \
                    if len(seq) < len(reference) else (reference_rank, rank)
                n_short, n_long = len(seqs[shorter]), len(seqs[longer])
                extra = traces[longer].values[
                    seqs[longer][min(n_short, n_long - 1)]]
                out.append(Diagnostic(
                    check="collective-count", severity="error",
                    rank=shorter, op_index=None, op=describe_op(extra),
                    message=f"rank {shorter} issues {n_short} "
                            f"collective(s) on {name!r} while rank "
                            f"{longer} issues {n_long}; the extra "
                            f"collective would hang waiting for rank "
                            f"{shorter}",
                    hint="make every member execute the same collective "
                         "sequence (check rank-dependent branches)",
                ))
            elif kind == "type":
                out.append(_at(
                    traces[rank], seqs[rank][pos], "collective-divergence",
                    f"collective sequence diverges on {name!r} at "
                    f"position {pos}: rank {rank} issues "
                    f"{type(seq[pos]).__name__} while rank "
                    f"{reference_rank} issues "
                    f"{type(reference[pos]).__name__}",
                    "collectives are matched by call order; align the "
                    "sequences across ranks"))
            else:  # root
                out.append(_at(
                    traces[rank], seqs[rank][pos],
                    "collective-root-divergence",
                    f"{type(seq[pos]).__name__} on {name!r} at position "
                    f"{pos}: rank {rank} uses root "
                    f"{ops.collective_root(seq[pos])} while rank "
                    f"{reference_rank} uses root "
                    f"{ops.collective_root(reference[pos])}",
                    "all members must pass the same root"))
            break   # first diverging member per communicator is enough
    return out


def _first_divergence(reference: list, seq: list) -> tuple[int, str] | None:
    """(index, kind) of the first mismatch between two collective
    sequences, or None when congruent."""
    for i, (a, b) in enumerate(zip(reference, seq)):
        if type(a) is not type(b):
            return i, "type"
        if ops.collective_root(a) != ops.collective_root(b):
            return i, "root"
    if len(reference) != len(seq):
        return min(len(reference), len(seq)), "count"
    return None
