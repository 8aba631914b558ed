"""Tests for symbolic rank-program replay and its failure findings."""

from repro.analysis.checks import check_traces
from repro.errors import ConfigurationError
from repro.runtime import replay
from repro.runtime.program import Compute, Irecv, Isend, Recv, Send, WaitAll
from repro.runtime.replay import COMPUTE, SEND, TracedRequest, \
    trace_program, trace_rank


def program_findings(trace):
    """The analyzer's per-rank program findings for one trace."""
    structure, _ = check_traces({trace.rank: trace}, 2,
                                {"world": (0, 1)})
    return [d for d in structure if d.check.startswith("program-")]


class TestReplay:
    def test_records_ops_in_order(self):
        def program(rank, size):
            yield Compute(kernel="k", iters=10)
            yield Send(dst=(rank + 1) % size, tag=0, size_bytes=8)

        traces = trace_program(program, 2)
        assert sorted(traces) == [0, 1]
        for rank, trace in traces.items():
            assert trace.error is None and not trace.truncated
            assert trace.rank == rank
            assert [type(op).__name__ for op in trace.values] == \
                ["Compute", "Send"]
            assert trace.kinds == [COMPUTE, SEND]

    def test_requests_round_trip(self):
        """``r = yield Irecv(...)`` must receive a token the analyzer can
        later recognize inside WaitAll — same shape as the executor."""
        def program(rank, size):
            r = yield Irecv(src=(rank + 1) % size, tag=0)
            yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)
            yield WaitAll([r])

        trace = trace_rank(program, 0, 2)
        assert isinstance(trace.requests[0], TracedRequest)
        assert trace.requests[0].op_index == 0
        assert 1 in trace.requests                  # Isend yields one too
        waited = list(trace.values[2].requests)
        assert waited == [trace.requests[0]]
        assert "Irecv" in trace.requests[0].describe()

    def test_blocking_ops_get_no_request(self):
        def program(rank, size):
            yield Send(dst=1, tag=0, size_bytes=8) if rank == 0 else \
                Recv(src=0, tag=0)

        trace = trace_rank(program, 0, 2)
        assert trace.requests == {}


class TestFailures:
    def test_config_error_becomes_diagnostic(self):
        def program(rank, size):
            yield Compute(kernel="k", iters=10)
            yield Send(dst=1, tag=-5, size_bytes=8)     # invalid tag

        trace = trace_rank(program, 0, 2)
        assert isinstance(trace.error, ConfigurationError)
        (failure,) = program_findings(trace)
        assert failure.check == "program-config"
        assert failure.op_index == 1      # one op traced before
        assert len(trace.values) == 1

    def test_python_crash_becomes_diagnostic(self):
        def program(rank, size):
            yield Compute(kernel="k", iters=10)
            raise IndexError("neighbour table overrun")

        trace = trace_rank(program, 0, 2)
        (failure,) = program_findings(trace)
        assert failure.check == "program-crash"
        assert "IndexError" in failure.message

    def test_one_broken_rank_does_not_hide_others(self):
        def program(rank, size):
            if rank == 1:
                raise RuntimeError("boom")
            yield Compute(kernel="k", iters=10)

        traces = trace_program(program, 3)
        assert traces[1].error is not None
        assert traces[0].error is None and traces[2].error is None
        assert len(traces[0].values) == 1

    def test_op_budget_truncates(self, monkeypatch):
        def program(rank, size):
            while True:
                yield Compute(kernel="k", iters=1)

        monkeypatch.setattr(replay, "DEFAULT_MAX_OPS", 25)
        trace = trace_rank(program, 0, 1)
        assert trace.truncated
        assert len(trace.values) == 25
