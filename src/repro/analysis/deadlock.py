"""Symbolic scheduling: order-aware deadlock detection before any run.

The count-matching checks in :mod:`repro.analysis.checks` are
order-blind; this module replays the traced op streams against a
*timeless* abstraction of the runtime's matching rules — the same
eager/rendezvous protocol split, per-destination FIFO matching with
``ANY_SOURCE`` wildcards, and all-members-arrive collective semantics as
:class:`~repro.runtime.mpi.SimMPI` — advancing every rank as far as its
blocking operations allow.  If the system wedges with unexecuted ops,
the stuck ranks and what each one is waiting for become ``deadlock``
diagnostics: the classic cyclic rendezvous ``Send`` ring is reported
with the cycle visible in the wait-for descriptions, while the same ring
below the eager threshold completes silently (no false positive —
exactly like the runtime and real MPI eager buffering).

The scheduler executes each op at most once, so it terminates in
O(total ops) work regardless of program shape.  It dispatches on the
kind replay assigned each op and never visits local ops, which are free
under the abstraction.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.diagnostics import Diagnostic
from repro.runtime.program import ANY_SOURCE, describe_op
from repro.runtime.replay import (
    COLL,
    ICOLL,
    IRECV,
    ISEND,
    RECV,
    SEND,
    SENDRECV,
    WAITALL,
    ProgramTrace,
    TracedRequest,
)

#: Hint attached to every deadlock diagnostic.
_HINT = ("break the wait cycle: post receives before sends, use "
         "Isend/Irecv + WaitAll (the halo-exchange idiom), or keep "
         "messages below the eager threshold")


class _CollPending:
    """One collective with some members still to arrive."""

    __slots__ = ("arrived", "tokens")

    def __init__(self) -> None:
        self.arrived: set[int] = set()
        self.tokens: list[object] = []


class _Scheduler:
    def __init__(self, traces: dict[int, ProgramTrace],
                 eager_threshold: float,
                 communicators: dict[str, tuple[int, ...]]) -> None:
        self.eager = eager_threshold
        self.comms = communicators
        self.n_ranks = len(traces)
        self.traces = traces
        # rank -> indices of its MPI ops; local ops are free under the
        # abstraction and never scheduled
        self.streams = {
            r: [i for i, kind in enumerate(t.kinds) if kind >= ISEND]
            for r, t in traces.items()}
        # completed tokens, held by strong reference: tracking by id()
        # alone would break when CPython reuses a freed token's id
        self.done: set[object] = set()
        # destination -> posted-but-unmatched (src, tag, token), FIFO; a
        # receive's src may be ANY_SOURCE, a token completes when matched
        self.sends: dict[int, list[tuple[int, int, object]]] = {
            r: [] for r in traces}
        self.recvs: dict[int, list[tuple[int, int, object]]] = {
            r: [] for r in traces}
        self.coll: dict[str, _CollPending] = {}
        self.pc = dict.fromkeys(traces, 0)
        #: rank -> (op index, [unfinished tokens]) while blocked
        self.blocked: dict[int, tuple[int, list[object]]] = {}
        #: findings made while scheduling (e.g. collective re-entry)
        self.extra: list[Diagnostic] = []

    # ------------------------------------------------------------------
    # matching (timeless mirror of SimMPI's FIFO rules)
    # ------------------------------------------------------------------
    def _post_send(self, src: int, dst: int, tag: int, size: float,
                   token: object) -> None:
        if not (0 <= dst < self.n_ranks and dst != src):
            self.done.add(token)        # a structure finding already
            return
        if size < self.eager:
            self.done.add(token)        # eager: completes on buffering
        queue = self.recvs[dst]
        for i, (rsrc, rtag, rtoken) in enumerate(queue):
            if rtag == tag and (rsrc == src or rsrc == ANY_SOURCE):
                del queue[i]
                self.done.add(token)
                self.done.add(rtoken)
                return
        self.sends[dst].append((src, tag, token))

    def _post_recv(self, dst: int, src: int, tag: int,
                   token: object) -> None:
        if not (src == ANY_SOURCE or (0 <= src < self.n_ranks
                                      and src != dst)):
            self.done.add(token)        # a structure finding already
            return
        queue = self.sends[dst]
        for i, (ssrc, stag, stoken) in enumerate(queue):
            if stag == tag and (src == ssrc or src == ANY_SOURCE):
                del queue[i]
                self.done.add(stoken)
                self.done.add(token)
                return
        self.recvs[dst].append((src, tag, token))

    def _arrive_collective(self, rank: int, index: int, op: Any,
                           token: object) -> None:
        comm = op.comm
        members = self.comms.get(comm)
        if members is None or rank not in members:
            self.done.add(token)        # already a structure finding
            return
        state = self.coll.get(comm)
        if state is None:
            state = self.coll[comm] = _CollPending()
        if rank in state.arrived:
            # re-entry before release: a second collective issued on the
            # comm while the rank's earlier (nonblocking) one is still
            # pending — the runtime raises CommunicatorError here under
            # the same schedule
            self.extra.append(Diagnostic(
                check="collective-reentry", severity="error",
                rank=rank, op_index=index, op=describe_op(op),
                message=f"rank {rank} enters a collective on {comm!r} "
                        f"again before its previous nonblocking "
                        f"collective completed",
                hint="WaitAll the previous IAllreduce/IBarrier before "
                     "issuing the next collective on the same "
                     "communicator",
            ))
            self.done.add(token)
            return
        state.arrived.add(rank)
        state.tokens.append(token)
        if len(state.arrived) == len(members):
            self.done.update(state.tokens)
            del self.coll[comm]

    # ------------------------------------------------------------------
    def _issue(self, rank: int, index: int, kind: int,
               op: Any) -> list[object]:
        """Execute one MPI op other than Isend/Irecv (which
        :meth:`_advance` posts itself); returns the unfinished tokens it
        blocks on (empty = continues immediately)."""
        done = self.done
        if kind == WAITALL:
            return [item for item in op.requests
                    if isinstance(item, TracedRequest) and item not in done]
        if kind == ICOLL:
            self._arrive_collective(rank, index, op,
                                    self.traces[rank].requests[index])
            return []
        if kind == COLL:
            token = object()
            self._arrive_collective(rank, index, op, token)
            tokens = [token]
        elif kind == SEND:
            token = object()
            self._post_send(rank, op.dst, op.tag, op.size_bytes, token)
            tokens = [token]
        elif kind == RECV:
            token = object()
            self._post_recv(rank, op.src, op.tag, token)
            tokens = [token]
        elif kind == SENDRECV:
            tokens = [object(), object()]
            self._post_send(rank, op.dst, op.send_tag, op.size_bytes,
                            tokens[0])
            self._post_recv(rank, op.src, op.recv_tag, tokens[1])
        else:
            return []                   # unknown value: a structure finding
        return [t for t in tokens if t not in done]

    def _advance(self, rank: int) -> bool:
        """Run one rank as far as possible; True if any op executed or a
        blocked wait resolved."""
        done = self.done
        progressed = False
        if rank in self.blocked:
            index, tokens = self.blocked[rank]
            tokens = [t for t in tokens if t not in done]
            if tokens:
                self.blocked[rank] = (index, tokens)
                return False
            del self.blocked[rank]
            progressed = True
        post_send, post_recv, issue = \
            self._post_send, self._post_recv, self._issue
        trace = self.traces[rank]
        values, kinds, requests = trace.values, trace.kinds, trace.requests
        stream = self.streams[rank]
        start = pc = self.pc[rank]
        end = len(stream)
        while pc < end:
            index = stream[pc]
            pc += 1
            kind, op = kinds[index], values[index]
            if kind == ISEND:           # the halo-exchange bulk: never blocks
                post_send(rank, op.dst, op.tag, op.size_bytes,
                          requests[index])
                continue
            if kind == IRECV:
                post_recv(rank, op.src, op.tag, requests[index])
                continue
            waits = issue(rank, index, kind, op)
            if waits:
                self.blocked[rank] = (index, waits)
                break
        self.pc[rank] = pc
        return progressed or pc > start

    # ------------------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        ranks = sorted(self.streams)
        progress = True
        while progress:
            progress = False
            for rank in ranks:
                if self._advance(rank):
                    progress = True
        return self.extra + [self._stuck_diag(rank) for rank in ranks
                             if rank in self.blocked]

    def _stuck_diag(self, rank: int) -> Diagnostic:
        index, tokens = self.blocked[rank]
        trace = self.traces[rank]
        kind, op = trace.kinds[index], trace.values[index]
        return Diagnostic(
            check="deadlock", severity="error",
            rank=rank, op_index=index, op=describe_op(op),
            message=f"rank {rank} blocks forever on {describe_op(op)}: "
                    f"{self._explain(kind, op, tokens)}",
            hint=_HINT,
        )

    def _explain(self, kind: int, op: Any, tokens: list[object]) -> str:
        if kind == SEND:
            return (f"rendezvous-size send; rank {op.dst} never posts the "
                    f"matching receive (tag {op.tag})")
        if kind == RECV:
            src = "ANY_SOURCE" if op.src == ANY_SOURCE else op.src
            return f"no send from {src} with tag {op.tag} remains"
        if kind == SENDRECV:
            return "its send and/or receive half never matches"
        if kind == WAITALL:
            unfinished = [t.describe() for t in tokens
                          if isinstance(t, TracedRequest)]
            return "unfinished: " + "; ".join(unfinished[:4]) + \
                ("; ..." if len(unfinished) > 4 else "")
        if kind == COLL:
            state = self.coll.get(op.comm)
            members = self.comms.get(op.comm, ())
            if state is not None:
                missing = sorted(set(members) - state.arrived)
                return (f"collective on {op.comm!r} waits for ranks "
                        f"{missing[:8]}")
            return f"collective on {op.comm!r} never forms"
        return "blocked"                # pragma: no cover - exhaustive above


def find_deadlocks(traces: dict[int, ProgramTrace], *,
                   eager_threshold: float,
                   communicators: dict[str, tuple[int, ...]]
                   ) -> list[Diagnostic]:
    """Symbolically schedule the traced programs; diagnostics for every
    rank that can never finish."""
    return _Scheduler(traces, eager_threshold, communicators).run()
