"""Seeded-bug tests: each analyzer check must flag its bug category and
stay silent on the legal variants.

All checks run in one walk (:func:`check_traces`); the helpers below
keep one category of its findings each."""

from repro.analysis import analyze_program
from repro.analysis.checks import check_traces
from repro.runtime import replay
from repro.runtime.replay import trace_program
from repro.runtime.program import (
    ANY_SOURCE,
    MAX_PORTABLE_TAG,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Irecv,
    Isend,
    Recv,
    Send,
    WaitAll,
)

WORLD2 = {"world": (0, 1)}
WORLD3 = {"world": (0, 1, 2)}


def checks_fired(diags):
    return {d.check for d in diags}


def _category(traces, communicators, checks):
    structure, kernel_refs = check_traces(traces, len(traces),
                                          communicators)
    assert kernel_refs == []
    return [d for d in structure if d.check in checks]


def check_programs(traces):
    return _category(traces, {"world": tuple(traces)}, {
        "program-config", "program-crash", "program-budget",
        "unknown-op"})


def check_domains(traces, n_ranks, communicators):
    assert n_ranks == len(traces)
    return _category(traces, communicators, {
        "p2p-invalid-send", "p2p-invalid-recv", "p2p-tag-range",
        "collective-unknown-comm", "collective-nonmember",
        "collective-bad-root"})


def check_requests(traces):
    return _category(traces, {"world": tuple(traces)}, {
        "waitall-non-request", "request-foreign", "request-double-wait",
        "request-unwaited"})


def check_p2p_matching(traces, n_ranks):
    assert n_ranks == len(traces)
    return _category(traces, {"world": tuple(traces)}, {
        "p2p-unmatched-send", "p2p-unmatched-recv"})


def check_collectives(traces, communicators):
    return _category(traces, communicators, {
        "collective-count", "collective-divergence",
        "collective-root-divergence"})


class TestProgramChecks:
    def test_unknown_yield_flagged(self):
        def program(rank, size):
            yield Compute(kernel="k", iters=1)
            yield "flush caches"

        diags = check_programs(trace_program(program, 1))
        assert checks_fired(diags) == {"unknown-op"}

    def test_budget_truncation_is_warning(self, monkeypatch):
        def program(rank, size):
            while True:
                yield Compute(kernel="k", iters=1)

        monkeypatch.setattr(replay, "DEFAULT_MAX_OPS", 10)
        diags = check_programs(trace_program(program, 1))
        assert [d.check for d in diags] == ["program-budget"]
        assert diags[0].severity == "warning"


class TestDomainChecks:
    def test_send_to_self(self):
        def program(rank, size):
            yield Isend(dst=rank, tag=0, size_bytes=8)

        diags = check_domains(trace_program(program, 2), 2, WORLD2)
        assert all(d.check == "p2p-invalid-send" for d in diags)
        assert "itself" in diags[0].message

    def test_recv_out_of_range(self):
        def program(rank, size):
            yield Recv(src=size, tag=0)     # off-by-one neighbour bug

        diags = check_domains(trace_program(program, 2), 2, WORLD2)
        assert checks_fired(diags) == {"p2p-invalid-recv"}

    def test_any_source_is_a_valid_src(self):
        def program(rank, size):
            yield Irecv(src=ANY_SOURCE, tag=0)

        assert check_domains(trace_program(program, 2), 2, WORLD2) == []

    def test_nonportable_tag_warns(self):
        def program(rank, size):
            if rank == 0:
                yield Send(dst=1, tag=MAX_PORTABLE_TAG + 1, size_bytes=8)
            else:
                yield Recv(src=0, tag=MAX_PORTABLE_TAG + 1)

        diags = check_domains(trace_program(program, 2), 2, WORLD2)
        assert checks_fired(diags) == {"p2p-tag-range"}
        assert all(d.severity == "warning" for d in diags)

    def test_collective_on_unknown_comm(self):
        def program(rank, size):
            yield Barrier(comm="cmg")

        diags = check_domains(trace_program(program, 2), 2, WORLD2)
        assert checks_fired(diags) == {"collective-unknown-comm"}

    def test_collective_nonmember(self):
        def program(rank, size):
            yield Barrier(comm="pair")

        comms = dict(WORLD3, pair=(0, 1))
        diags = check_domains(trace_program(program, 3), 3, comms)
        assert checks_fired(diags) == {"collective-nonmember"}
        assert all(d.rank == 2 for d in diags)

    def test_collective_bad_root(self):
        def program(rank, size):
            yield Bcast(size_bytes=8, root=9)

        diags = check_domains(trace_program(program, 2), 2, WORLD2)
        assert checks_fired(diags) == {"collective-bad-root"}


class TestRequestChecks:
    def test_waitall_on_non_request(self):
        def program(rank, size):
            yield WaitAll(["not a request"])

        diags = check_requests(trace_program(program, 1))
        assert checks_fired(diags) == {"waitall-non-request"}

    def test_double_wait_warns(self):
        def program(rank, size):
            r = yield Irecv(src=ANY_SOURCE, tag=0)
            yield WaitAll([r])
            yield WaitAll([r])

        diags = check_requests(trace_program(program, 2))
        assert checks_fired(diags) == {"request-double-wait"}
        assert all(d.severity == "warning" for d in diags)

    def test_unwaited_irecv_warns(self):
        def program(rank, size):
            yield Irecv(src=ANY_SOURCE, tag=0)

        diags = check_requests(trace_program(program, 2))
        assert checks_fired(diags) == {"request-unwaited"}

    def test_unwaited_isend_is_fine(self):
        """Fire-and-forget sends are the shipped skeleton idiom."""
        def program(rank, size):
            yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)
            r = yield Irecv(src=(rank - 1) % size, tag=0)
            yield WaitAll([r])

        assert check_requests(trace_program(program, 2)) == []


class TestP2PMatching:
    def test_unmatched_recv(self):
        def program(rank, size):
            if rank == 1:
                yield Recv(src=0, tag=3)    # rank 0 never sends

        diags = check_p2p_matching(trace_program(program, 2), 2)
        assert checks_fired(diags) == {"p2p-unmatched-recv"}
        assert diags[0].rank == 1

    def test_unmatched_send(self):
        def program(rank, size):
            if rank == 0:
                yield Isend(dst=1, tag=3, size_bytes=8)

        diags = check_p2p_matching(trace_program(program, 2), 2)
        assert checks_fired(diags) == {"p2p-unmatched-send"}

    def test_tag_mismatch_is_two_findings(self):
        def program(rank, size):
            if rank == 0:
                yield Isend(dst=1, tag=1, size_bytes=8)
            else:
                r = yield Irecv(src=0, tag=2)
                yield WaitAll([r])

        diags = check_p2p_matching(trace_program(program, 2), 2)
        assert checks_fired(diags) == \
            {"p2p-unmatched-send", "p2p-unmatched-recv"}

    def test_wildcard_absorbs_leftover_sends(self):
        def program(rank, size):
            if rank == 2:
                for _ in range(size - 1):
                    yield Recv(src=ANY_SOURCE, tag=0)
            else:
                yield Send(dst=2, tag=0, size_bytes=8)

        assert check_p2p_matching(trace_program(program, 3), 3) == []

    def test_specific_recvs_matched_before_wildcards(self):
        """One send, one specific receive, one wildcard: the specific
        receive takes the send; only the wildcard is left unmatched."""
        def program(rank, size):
            if rank == 0:
                yield Send(dst=1, tag=0, size_bytes=8)
            else:
                yield Recv(src=0, tag=0)
                yield Recv(src=ANY_SOURCE, tag=0)

        diags = check_p2p_matching(trace_program(program, 2), 2)
        assert len(diags) == 1
        assert diags[0].check == "p2p-unmatched-recv"
        assert "ANY_SOURCE" in diags[0].message

    def test_balanced_exchange_is_clean(self):
        def program(rank, size):
            peer = (rank + 1) % size
            r = yield Irecv(src=(rank - 1) % size, tag=7)
            yield Isend(dst=peer, tag=7, size_bytes=64)
            yield WaitAll([r])

        assert check_p2p_matching(trace_program(program, 4), 4) == []


class TestCollectiveCongruence:
    def test_count_mismatch(self):
        def program(rank, size):
            yield Allreduce(size_bytes=8)
            if rank != 0:
                yield Allreduce(size_bytes=8)   # rank 0 skips the second

        diags = check_collectives(trace_program(program, 3), WORLD3)
        assert checks_fired(diags) == {"collective-count"}
        assert diags[0].rank == 0

    def test_type_divergence(self):
        def program(rank, size):
            if rank == 0:
                yield Allreduce(size_bytes=8)
            else:
                yield Barrier()

        diags = check_collectives(trace_program(program, 2), WORLD2)
        assert checks_fired(diags) == {"collective-divergence"}
        assert "Barrier" in diags[0].message
        assert "Allreduce" in diags[0].message

    def test_root_divergence(self):
        def program(rank, size):
            yield Bcast(size_bytes=8, root=rank % 2)

        diags = check_collectives(trace_program(program, 2), WORLD2)
        assert checks_fired(diags) == {"collective-root-divergence"}

    def test_per_rank_sizes_allowed(self):
        """modylas/ngsa contribute different byte counts per rank — the
        simulator costs the max, so sizes must NOT be congruence-checked."""
        def program(rank, size):
            yield Allreduce(size_bytes=8 * (rank + 1))

        assert check_collectives(trace_program(program, 4),
                                 {"world": (0, 1, 2, 3)}) == []

    def test_subcommunicator_checked_independently(self):
        def program(rank, size):
            yield Barrier()
            if rank < 2:
                yield Allreduce(size_bytes=8, comm="pair")

        comms = dict(WORLD3, pair=(0, 1))
        assert check_collectives(trace_program(program, 3), comms) == []


class TestAnalyzeProgramIntegration:
    def test_clean_program_end_to_end(self):
        def program(rank, size):
            peer = (rank + 1) % size
            r = yield Irecv(src=(rank - 1) % size, tag=0)
            yield Isend(dst=peer, tag=0, size_bytes=1 << 20)
            yield WaitAll([r])
            yield Allreduce(size_bytes=8)

        report = analyze_program(program, 4)
        assert report.ok, report.render()

    def test_seeded_bugs_all_reported(self):
        def program(rank, size):
            if rank == 0:
                yield Recv(src=1, tag=0)    # never sent
                yield Allreduce(size_bytes=8)
            else:
                yield Bcast(size_bytes=8, root=0)

        report = analyze_program(program, 2)
        fired = checks_fired(report.diagnostics)
        assert "p2p-unmatched-recv" in fired
        assert "collective-divergence" in fired
