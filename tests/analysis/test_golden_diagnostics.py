"""Golden: the rendered lint reports of every seeded-bug program.

Each program below mirrors a seeded bug (or a legal variant) of the
analysis tests — structure checks, deadlock scheduling, replay and job
analysis — plus a few shapes those tests reach only in part.  Every one
is rendered through :func:`analyze_program` or :func:`analyze_job`
(discovery order, not the sorted artifact order), and the SHA-256 of
the concatenated text is pinned.  A change to any message, hint,
anchor or the order findings are reported in fails here.
"""

import hashlib

from repro.analysis import analyze_job, analyze_program
from repro.compile import PRESETS
from repro.kernels import presets
from repro.machine import catalog
from repro.runtime import Job, JobPlacement, replay
from repro.runtime.program import (
    ANY_SOURCE,
    MAX_PORTABLE_TAG,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Gather,
    IAllreduce,
    IBarrier,
    Irecv,
    Isend,
    Recv,
    Send,
    Sendrecv,
    WaitAll,
)

EAGER_32K = 32 * 1024
PAIR = {"pair": (0, 1)}

#: sha256 of the rendered reports, computed before the analyzer was
#: rebuilt around one classified walk; since re-pinned once, for the
#: ``program-budget`` hint alone, which now names the replay's
#: ``DEFAULT_MAX_OPS`` instead of a ``max_ops`` argument.
GOLDEN = "27bc4996ed858abf5b5a79c1e96e6a5454340531b1b5b27ecb6e033b62501651"


# ----------------------------------------------------------------------
# structure checks
# ----------------------------------------------------------------------
def unknown_yield(rank, size):
    yield Compute(kernel="k", iters=1)
    yield "flush caches"


def unbounded(rank, size):
    while True:
        yield Compute(kernel="k", iters=1)


def send_to_self(rank, size):
    yield Isend(dst=rank, tag=0, size_bytes=8)


def recv_out_of_range(rank, size):
    yield Recv(src=size, tag=0)


def any_source_irecv(rank, size):
    yield Irecv(src=ANY_SOURCE, tag=0)


def nonportable_tag(rank, size):
    if rank == 0:
        yield Send(dst=1, tag=MAX_PORTABLE_TAG + 1, size_bytes=8)
    else:
        yield Recv(src=0, tag=MAX_PORTABLE_TAG + 1)


def unknown_comm(rank, size):
    yield Barrier(comm="cmg")


def nonmember(rank, size):
    yield Barrier(comm="pair")


def bad_root(rank, size):
    yield Bcast(size_bytes=8, root=9)


def waitall_non_request(rank, size):
    yield WaitAll(["not a request"])


def double_wait(rank, size):
    r = yield Irecv(src=ANY_SOURCE, tag=0)
    yield WaitAll([r])
    yield WaitAll([r])


def unwaited_isend(rank, size):
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)
    r = yield Irecv(src=(rank - 1) % size, tag=0)
    yield WaitAll([r])


def unmatched_recv(rank, size):
    if rank == 1:
        yield Recv(src=0, tag=3)


def unmatched_send(rank, size):
    if rank == 0:
        yield Isend(dst=1, tag=3, size_bytes=8)


def tag_mismatch(rank, size):
    if rank == 0:
        yield Isend(dst=1, tag=1, size_bytes=8)
    else:
        r = yield Irecv(src=0, tag=2)
        yield WaitAll([r])


def wildcard_absorbs(rank, size):
    if rank == 2:
        for _ in range(size - 1):
            yield Recv(src=ANY_SOURCE, tag=0)
    else:
        yield Send(dst=2, tag=0, size_bytes=8)


def specific_before_wildcard(rank, size):
    if rank == 0:
        yield Send(dst=1, tag=0, size_bytes=8)
    else:
        yield Recv(src=0, tag=0)
        yield Recv(src=ANY_SOURCE, tag=0)


def balanced_exchange(rank, size):
    r = yield Irecv(src=(rank - 1) % size, tag=7)
    yield Isend(dst=(rank + 1) % size, tag=7, size_bytes=64)
    yield WaitAll([r])


def collective_count(rank, size):
    yield Allreduce(size_bytes=8)
    if rank != 0:
        yield Allreduce(size_bytes=8)


def collective_type(rank, size):
    if rank == 0:
        yield Allreduce(size_bytes=8)
    else:
        yield Barrier()


def collective_root(rank, size):
    yield Bcast(size_bytes=8, root=rank % 2)


def per_rank_sizes(rank, size):
    yield Allreduce(size_bytes=8 * (rank + 1))


def subcommunicator(rank, size):
    yield Barrier()
    if rank < 2:
        yield Allreduce(size_bytes=8, comm="pair")


def clean_end_to_end(rank, size):
    r = yield Irecv(src=(rank - 1) % size, tag=0)
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=1 << 20)
    yield WaitAll([r])
    yield Allreduce(size_bytes=8)


def seeded_bugs(rank, size):
    if rank == 0:
        yield Recv(src=1, tag=0)
        yield Allreduce(size_bytes=8)
    else:
        yield Bcast(size_bytes=8, root=0)


_stash = {}


def foreign_request(rank, size):
    if rank == 0:
        _stash["r"] = yield Irecv(src=1, tag=0)
    else:
        yield Isend(dst=0, tag=0, size_bytes=8)
        yield WaitAll([_stash["r"]])


def everything_on_a_middle_rank(rank, size):
    yield Compute(kernel="k", iters=1)
    if rank == 1:
        yield Send(dst=rank, tag=MAX_PORTABLE_TAG + 5, size_bytes=8)
        yield Recv(src=size + 3, tag=1)
        yield Sendrecv(dst=7, send_tag=0, size_bytes=8, src=rank,
                       recv_tag=MAX_PORTABLE_TAG + 9)
        yield Gather(size_bytes=8, root=5, comm="pair")
        yield IBarrier(comm="nowhere")
        yield WaitAll([None, 3])
    yield Allreduce(size_bytes=8)


def root_count_mix(rank, size):
    yield Gather(size_bytes=8, root=0)
    if rank == 2:
        yield Gather(size_bytes=8, root=1)
        yield Barrier()
    else:
        yield Gather(size_bytes=8, root=1)
    yield Barrier(comm="pair") if rank < 2 else Compute(kernel="k",
                                                        iters=1)


def many_leftovers(rank, size):
    if rank == 0:
        for tag in (4, 4, 4, 2, 9):
            yield Isend(dst=1, tag=tag, size_bytes=8)
        for _ in range(2):
            yield Recv(src=ANY_SOURCE, tag=6)
    elif rank == 1:
        yield Recv(src=ANY_SOURCE, tag=4)
        yield Recv(src=2, tag=4)
        yield Recv(src=0, tag=2)
        yield Recv(src=0, tag=2)
    else:
        yield Send(dst=0, tag=6, size_bytes=8)


def every_group(rank, size):
    """One finding of each structure group, spread over the ranks."""
    if rank == 0:
        yield Isend(dst=rank, tag=MAX_PORTABLE_TAG + 1, size_bytes=8)
        yield WaitAll(["no handle"])
        yield Barrier()
        raise KeyError("halo table")
    if rank == 1:
        yield ("flush", "caches")
        yield Irecv(src=0, tag=4)
        yield Bcast(size_bytes=8, root=1)
    else:
        yield Recv(src=ANY_SOURCE, tag=4)
        yield Barrier(comm="pair")
        yield Barrier()


# ----------------------------------------------------------------------
# deadlock scheduling
# ----------------------------------------------------------------------
def send_ring(size_bytes):
    def program(rank, size):
        yield Send(dst=(rank + 1) % size, tag=0, size_bytes=size_bytes)
        yield Recv(src=(rank - 1) % size, tag=0)

    return program


def nonblocking_halo(rank, size):
    r = yield Irecv(src=(rank - 1) % size, tag=0)
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=1 << 20)
    yield WaitAll([r])


def sendrecv_ring(rank, size):
    yield Sendrecv(dst=(rank + 1) % size, send_tag=0, size_bytes=1 << 20,
                   src=(rank - 1) % size, recv_tag=0)


def crossed_recvs(rank, size):
    yield Recv(src=1 - rank, tag=0)
    yield Send(dst=1 - rank, tag=0, size_bytes=1 << 20)


def pingpong(rank, size):
    if rank == 0:
        yield Send(dst=1, tag=0, size_bytes=1 << 20)
        yield Recv(src=1, tag=0)
    else:
        yield Recv(src=0, tag=0)
        yield Send(dst=0, tag=0, size_bytes=1 << 20)


def any_source_unblocks(rank, size):
    if rank == 0:
        yield Recv(src=ANY_SOURCE, tag=0)
    else:
        yield Send(dst=0, tag=0, size_bytes=1 << 20)


def collective_rounds(rank, size):
    for _ in range(200):
        yield Allreduce(size_bytes=16)
        yield Barrier()


def interleaved(rank, size):
    for step in range(50):
        r = yield Irecv(src=(rank - 1) % size, tag=step)
        yield Isend(dst=(rank + 1) % size, tag=step, size_bytes=1 << 20)
        yield WaitAll([r])
        yield Allreduce(size_bytes=8)


def no_quorum(rank, size):
    if rank != 0:
        yield Barrier()


def waitall_unfinished(rank, size):
    if rank == 0:
        r = yield Irecv(src=1, tag=9)
        yield WaitAll([r])


def crossed_any_source(rank, size):
    yield Recv(src=ANY_SOURCE, tag=rank)
    yield Send(dst=1 - rank, tag=1 - rank, size_bytes=1 << 20)


def crossed_sendrecv(rank, size):
    yield Recv(src=1 - rank, tag=5)
    yield Sendrecv(dst=1 - rank, send_tag=5, size_bytes=1 << 20,
                   src=1 - rank, recv_tag=5)


def wide_waitall(rank, size):
    if rank == 0:
        reqs = []
        for tag in range(6):
            r = yield Irecv(src=1, tag=tag)
            reqs.append(r)
        yield WaitAll(reqs)
        yield Send(dst=1, tag=60, size_bytes=1 << 20)
    else:
        yield Barrier(comm="pair")
        yield Recv(src=0, tag=60)
        for tag in range(6):
            yield Send(dst=0, tag=tag, size_bytes=1 << 20)


def collective_reentry(rank, size):
    r1 = yield IAllreduce(size_bytes=8)
    if rank == 0:
        yield Compute(kernel="k", iters=1)
        r2 = yield IAllreduce(size_bytes=8)
        yield WaitAll([r1, r2])
    else:
        yield Compute(kernel="k", iters=1)
        yield WaitAll([r1])
        r2 = yield IAllreduce(size_bytes=8)
        yield WaitAll([r2])


def nonblocking_collectives(rank, size):
    r = yield IBarrier()
    yield IAllreduce(size_bytes=8)          # never waited
    yield Compute(kernel="k", iters=1)
    yield WaitAll([r])


# ----------------------------------------------------------------------
# replay failures
# ----------------------------------------------------------------------
def compute_then_send(rank, size):
    yield Compute(kernel="k", iters=10)
    yield Send(dst=(rank + 1) % size, tag=0, size_bytes=8)


def requests_round_trip(rank, size):
    r = yield Irecv(src=(rank + 1) % size, tag=0)
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)
    yield WaitAll([r])


def blocking_pair(rank, size):
    yield Send(dst=1, tag=0, size_bytes=8) if rank == 0 else \
        Recv(src=0, tag=0)


def config_error(rank, size):
    yield Compute(kernel="k", iters=10)
    yield Send(dst=1, tag=-5, size_bytes=8)


def python_crash(rank, size):
    yield Compute(kernel="k", iters=10)
    raise IndexError("neighbour table overrun")


def one_broken_rank(rank, size):
    if rank == 1:
        raise RuntimeError("boom")
    yield Compute(kernel="k", iters=10)


# ----------------------------------------------------------------------
# jobs: kernel references and the cluster's eager threshold
# ----------------------------------------------------------------------
def compute_allreduce(rank, size):
    yield Compute(kernel="triad", iters=1000)
    yield Allreduce(size_bytes=8)


def unknown_kernel(rank, size):
    yield Compute(kernel="dgemm", iters=1000)


def edge_rank_kernels(rank, size):
    yield Compute(kernel="triad", iters=10)
    if rank == 0:
        yield Compute(kernel="spmv", iters=10)
        yield Compute(kernel="spmv", iters=10)
    if rank == size - 1:
        yield Compute(kernel="fft", iters=10)
        yield Compute(kernel="spmv", iters=10)


def structural_and_kernel(rank, size):
    yield Compute(kernel="dgemm", iters=1)
    if rank == 0:
        yield Recv(src=1, tag=2)


def eager_ring(rank, size):
    yield Send(dst=(rank + 1) % size, tag=0, size_bytes=64)
    yield Recv(src=(rank - 1) % size, tag=0)


def job_report(program, n_ranks=2):
    cluster = catalog.a64fx()
    job = Job(cluster=cluster,
              placement=JobPlacement(cluster, n_ranks, 1),
              kernels={"triad": presets.stream_triad()}, program=program,
              options=PRESETS["kfast"])
    return analyze_job(job)


def budgeted(max_ops, factory, n_ranks):
    """:func:`analyze_program` with every replay cut at ``max_ops``."""
    saved = replay.DEFAULT_MAX_OPS
    replay.DEFAULT_MAX_OPS = max_ops
    try:
        return analyze_program(factory, n_ranks)
    finally:
        replay.DEFAULT_MAX_OPS = saved


def cases():
    """(name, report) for every seeded program, in a fixed order."""
    p = analyze_program
    return [
        ("unknown-yield", p(unknown_yield, 1)),
        ("budget", budgeted(10, unbounded, 1)),
        ("send-to-self", p(send_to_self, 2)),
        ("recv-out-of-range", p(recv_out_of_range, 2)),
        ("any-source-irecv", p(any_source_irecv, 2)),
        ("nonportable-tag", p(nonportable_tag, 2)),
        ("unknown-comm", p(unknown_comm, 2)),
        ("nonmember", p(nonmember, 3, communicators=PAIR)),
        ("bad-root", p(bad_root, 2)),
        ("waitall-non-request", p(waitall_non_request, 1)),
        ("double-wait", p(double_wait, 2)),
        ("unwaited-irecv", p(any_source_irecv, 2, eager_threshold=8)),
        ("unwaited-isend", p(unwaited_isend, 2)),
        ("unmatched-recv", p(unmatched_recv, 2)),
        ("unmatched-send", p(unmatched_send, 2)),
        ("tag-mismatch", p(tag_mismatch, 2)),
        ("wildcard-absorbs", p(wildcard_absorbs, 3)),
        ("specific-before-wildcard", p(specific_before_wildcard, 2)),
        ("balanced-exchange", p(balanced_exchange, 4)),
        ("collective-count", p(collective_count, 3)),
        ("collective-type", p(collective_type, 2)),
        ("collective-root", p(collective_root, 2)),
        ("per-rank-sizes", p(per_rank_sizes, 4)),
        ("subcommunicator", p(subcommunicator, 3, communicators=PAIR)),
        ("clean-end-to-end", p(clean_end_to_end, 4)),
        ("seeded-bugs", p(seeded_bugs, 2)),
        ("foreign-request", p(foreign_request, 2)),
        ("middle-rank-mix", p(everything_on_a_middle_rank, 3,
                              communicators=PAIR)),
        ("root-count-mix", p(root_count_mix, 3, communicators=PAIR)),
        ("many-leftovers", p(many_leftovers, 3)),
        ("every-group", p(every_group, 3, communicators=PAIR)),
        ("invalid-communicators", p(balanced_exchange, 3, communicators={
            "dup": (0, 0), "empty": (), "range": (1, 3), "ok": (2, 1)})),
        ("ring-rendezvous", p(send_ring(1 << 20), 4,
                              eager_threshold=EAGER_32K)),
        ("ring-eager", p(send_ring(100), 4, eager_threshold=EAGER_32K)),
        ("ring-boundary", p(send_ring(EAGER_32K), 2,
                            eager_threshold=EAGER_32K)),
        ("ring-strictest", p(send_ring(100), 4)),
        ("nonblocking-halo", p(nonblocking_halo, 4)),
        ("sendrecv-ring", p(sendrecv_ring, 4)),
        ("crossed-recvs", p(crossed_recvs, 2)),
        ("pingpong", p(pingpong, 2)),
        ("any-source-unblocks", p(any_source_unblocks, 2)),
        ("collective-rounds", p(collective_rounds, 8)),
        ("interleaved", p(interleaved, 6)),
        ("no-quorum", p(no_quorum, 3)),
        ("waitall-unfinished", p(waitall_unfinished, 2)),
        ("crossed-any-source", p(crossed_any_source, 2)),
        ("crossed-sendrecv", p(crossed_sendrecv, 2)),
        ("wide-waitall", p(wide_waitall, 2, communicators={"pair": (1,)})),
        ("collective-reentry", p(collective_reentry, 2)),
        ("nonblocking-collectives", p(nonblocking_collectives, 3)),
        ("compute-then-send", p(compute_then_send, 2)),
        ("requests-round-trip", p(requests_round_trip, 2)),
        ("blocking-pair", p(blocking_pair, 2)),
        ("config-error", p(config_error, 2)),
        ("python-crash", p(python_crash, 2)),
        ("one-broken-rank", p(one_broken_rank, 3)),
        ("op-budget", budgeted(25, unbounded, 1)),
        ("job-clean", job_report(compute_allreduce)),
        ("job-unknown-kernel", job_report(unknown_kernel)),
        ("job-edge-rank-kernels", job_report(edge_rank_kernels, 4)),
        ("job-structural-and-kernel", job_report(structural_and_kernel)),
        ("job-eager-ring", job_report(eager_ring, 4)),
        ("job-rendezvous-ring", job_report(send_ring(1 << 20), 3)),
    ]


def rendered():
    return "".join(f"## {name}\n{report.render()}\n"
                   for name, report in cases())


def test_seeded_bug_reports_byte_identical():
    text = rendered()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN, text
