"""Tests for order-aware symbolic deadlock detection.

The scheduler must mirror the runtime's eager/rendezvous split: the same
cyclic send ring deadlocks above the threshold and completes below it
(the false-positive guard — real MPI eager buffering absorbs it).
"""

from repro.analysis import analyze_program
from repro.analysis.deadlock import find_deadlocks
from repro.runtime.replay import trace_program
from repro.runtime.program import (
    ANY_SOURCE,
    Allreduce,
    Barrier,
    Irecv,
    Isend,
    Recv,
    Send,
    Sendrecv,
    WaitAll,
)

EAGER_32K = 32 * 1024


def world(n):
    return {"world": tuple(range(n))}


def deadlocks(program, n_ranks, eager=0.0):
    return find_deadlocks(trace_program(program, n_ranks),
                          eager_threshold=eager,
                          communicators=world(n_ranks))


def send_ring(size_bytes):
    def program(rank, size):
        yield Send(dst=(rank + 1) % size, tag=0, size_bytes=size_bytes)
        yield Recv(src=(rank - 1) % size, tag=0)

    return program


class TestSendRing:
    def test_rendezvous_ring_deadlocks(self):
        diags = deadlocks(send_ring(1 << 20), 4, eager=EAGER_32K)
        assert len(diags) == 4
        assert all(d.check == "deadlock" for d in diags)
        assert "never posts the matching receive" in diags[0].message

    def test_eager_ring_completes(self):
        """False-positive guard: below the threshold the eager buffer
        absorbs the cyclic sends, exactly like the runtime."""
        assert deadlocks(send_ring(100), 4, eager=EAGER_32K) == []

    def test_threshold_boundary_is_rendezvous(self):
        """At exactly the threshold the runtime switches to rendezvous."""
        assert deadlocks(send_ring(EAGER_32K), 2, eager=EAGER_32K) != []

    def test_analyze_program_defaults_to_strictest_model(self):
        """Without a cluster, every send is treated as rendezvous."""
        report = analyze_program(send_ring(100), 4)
        assert report.by_check("deadlock")

    def test_analyze_program_honors_cluster_threshold(self):
        report = analyze_program(send_ring(100), 4,
                                 eager_threshold=EAGER_32K)
        assert report.ok, report.render()


class TestOrderSensitivity:
    def test_nonblocking_halo_completes(self):
        def program(rank, size):
            r = yield Irecv(src=(rank - 1) % size, tag=0)
            yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=1 << 20)
            yield WaitAll([r])

        assert deadlocks(program, 4) == []

    def test_sendrecv_ring_completes(self):
        def program(rank, size):
            yield Sendrecv(dst=(rank + 1) % size, send_tag=0,
                           size_bytes=1 << 20, src=(rank - 1) % size,
                           recv_tag=0)

        assert deadlocks(program, 4) == []

    def test_crossed_blocking_recvs_deadlock(self):
        """Counts match, order does not: both ranks Recv first."""
        def program(rank, size):
            yield Recv(src=1 - rank, tag=0)
            yield Send(dst=1 - rank, tag=0, size_bytes=1 << 20)

        diags = deadlocks(program, 2)
        assert len(diags) == 2
        assert {d.rank for d in diags} == {0, 1}

    def test_pingpong_order_is_fine(self):
        def program(rank, size):
            if rank == 0:
                yield Send(dst=1, tag=0, size_bytes=1 << 20)
                yield Recv(src=1, tag=0)
            else:
                yield Recv(src=0, tag=0)
                yield Send(dst=0, tag=0, size_bytes=1 << 20)

        assert deadlocks(program, 2) == []

    def test_any_source_unblocks(self):
        def program(rank, size):
            if rank == 0:
                yield Recv(src=ANY_SOURCE, tag=0)
            else:
                yield Send(dst=0, tag=0, size_bytes=1 << 20)

        assert deadlocks(program, 2) == []


class TestCollectiveScheduling:
    def test_many_collective_rounds_release_cleanly(self):
        """Regression: completion tokens must be tracked by identity with
        the tokens kept alive — tracking freed ids spuriously marked new
        tokens done and reported phantom collective re-entry."""
        def program(rank, size):
            for _ in range(200):
                yield Allreduce(size_bytes=16)
                yield Barrier()

        assert deadlocks(program, 8) == []

    def test_interleaved_p2p_and_collectives(self):
        def program(rank, size):
            for step in range(50):
                r = yield Irecv(src=(rank - 1) % size, tag=step)
                yield Isend(dst=(rank + 1) % size, tag=step,
                            size_bytes=1 << 20)
                yield WaitAll([r])
                yield Allreduce(size_bytes=8)

        assert deadlocks(program, 6) == []

    def test_collective_blocks_forever_without_quorum(self):
        def program(rank, size):
            if rank != 0:
                yield Barrier()

        diags = deadlocks(program, 3)
        assert {d.rank for d in diags} == {1, 2}
        assert "waits for ranks" in diags[0].message

    def test_waitall_explains_unfinished_requests(self):
        def program(rank, size):
            if rank == 0:
                r = yield Irecv(src=1, tag=9)
                yield WaitAll([r])

        diags = deadlocks(program, 2)
        assert len(diags) == 1
        assert diags[0].check == "deadlock"
        assert "unfinished" in diags[0].message
