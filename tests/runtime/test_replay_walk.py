"""The executor walks replayed traces: one replay per executed config.

Each rank program is stepped once per run, by
:func:`repro.runtime.replay.trace_rank` — inside the lint gate's fresh
analysis, whose traces the run then walks, or inside ``run_job`` when
the gate is off or answered from a memo.  The walk keeps the failure
semantics of stepping the generators in simulated time.
"""

from collections import Counter

import pytest

from repro.analysis import analyzer
from repro.compile import PRESETS
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.errors import ConfigurationError, SimulationError
from repro.kernels import presets
from repro.machine import catalog
from repro.miniapps import by_name
from repro.runtime import Irecv, Isend, Job, JobPlacement, Recv, Send, \
    Sleep, WaitAll, run_job
from repro.runtime.replay import trace_program

KERNELS = {"triad": presets.stream_triad()}


def make_job(program, n_ranks=2):
    cluster = catalog.a64fx()
    return Job(cluster=cluster, placement=JobPlacement(cluster, n_ranks, 1),
               kernels=KERNELS, program=program, options=PRESETS["kfast"])


@pytest.fixture
def factory_calls(monkeypatch):
    """rank -> how often ffvc's program factory was called for it."""
    app = by_name("ffvc")
    real = app.make_program
    calls: Counter = Counter()

    def counting(dataset, n_ranks):
        factory = real(dataset, n_ranks)

        def program(rank, size):
            calls[rank] += 1
            return factory(rank, size)
        return program

    monkeypatch.setattr(app, "make_program", counting)
    enabled = analyzer.preflight_enabled()
    analyzer.clear_memos()
    try:
        yield calls
    finally:
        analyzer.set_preflight(enabled)
        analyzer.clear_memos()


def test_each_executed_config_replays_each_rank_once(factory_calls):
    config = ExperimentConfig(app="ffvc", n_ranks=4, n_threads=12)
    passes = [
        ("fresh lint", config, True),
        ("verdict-memo hit", config, True),
        ("shape-memo hit", ExperimentConfig(app="ffvc", n_ranks=4,
                                            n_threads=6), True),
        ("lint off", config, False),
    ]
    for label, cfg, lint in passes:
        analyzer.set_preflight(lint)
        factory_calls.clear()
        run_config(cfg)
        assert factory_calls == {rank: 1 for rank in range(4)}, label


def test_handed_traces_give_the_rows_of_a_fresh_replay():
    cluster = catalog.a64fx()
    job = by_name("ffvc").build_job(cluster, JobPlacement(cluster, 4, 12))
    replayed = run_job(job)
    handed = run_job(job, trace_program(job.program, 4))
    assert (handed.elapsed, handed.rank_finish, handed.messages_sent) == \
        (replayed.elapsed, replayed.rank_finish, replayed.messages_sent)


def test_stored_error_is_raised_in_event_order():
    """Rank 0's program fails first in program order, rank 1's first in
    simulated time: the run raises rank 1's, as stepping would."""
    def program(rank, size):
        yield Sleep(2.0 if rank == 0 else 1.0)
        if rank == 0:
            raise KeyError("rank 0 table")
        raise ValueError("rank 1 bug")

    with pytest.raises(ValueError, match="rank 1 bug"):
        run_job(make_job(program))


def test_configuration_error_names_the_rank_and_job():
    def program(rank, size):
        yield Sleep(1e-6)
        if rank == 1:
            yield Isend(dst=0, tag=-3, size_bytes=8)

    with pytest.raises(ConfigurationError,
                       match=r"^rank 1 of job 'job': .*tag=-3"):
        run_job(make_job(program))


def test_waitall_on_another_ranks_token_is_rejected():
    """Replay tokens map to requests by column index, per rank: a token
    smuggled across ranks is not a request of the waiting rank."""
    tokens = {}

    def program(rank, size):
        request = yield Irecv(src=1 - rank, tag=0)
        tokens[rank] = request
        yield Isend(dst=1 - rank, tag=0, size_bytes=8)
        yield WaitAll([tokens[0]])

    with pytest.raises(SimulationError, match="rank 1: WaitAll on a "
                                              "non-request"):
        run_job(make_job(program))


def test_each_executed_config_builds_its_job_once(monkeypatch):
    app = by_name("ffvc")
    real = app.build_job
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(app, "build_job", counting)
    config = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=12)
    enabled = analyzer.preflight_enabled()
    analyzer.clear_memos()
    try:
        for label, cfg, lint in [
                ("fresh lint", config, True),
                ("verdict-memo hit", config, True),
                ("shape-memo hit", ExperimentConfig(
                    app="ffvc", n_ranks=2, n_threads=6), True),
                ("lint off", config, False)]:
            analyzer.set_preflight(lint)
            builds.clear()
            run_config(cfg)
            assert len(builds) == 1, label
    finally:
        analyzer.set_preflight(enabled)
        analyzer.clear_memos()


def _endless(rank, size):
    while True:
        if rank == 0:
            yield Send(dst=1, tag=0, size_bytes=8)
        else:
            yield Recv(src=0, tag=0)


def test_endless_program_stops_at_the_op_budget(monkeypatch):
    """With the lint gate off, the run's own replay keeps the budget: an
    unbounded program raises instead of replaying without end."""
    from repro.analytic.profile import profile_from_replay
    from repro.runtime import replay

    monkeypatch.setattr(replay, "DEFAULT_MAX_OPS", 50)
    budget = r": replay stopped at the op budget \(DEFAULT_MAX_OPS = 50 ops\)"
    with pytest.raises(SimulationError, match="^rank 0 of job 'job'" + budget):
        run_job(make_job(_endless))
    with pytest.raises(SimulationError, match="^rank 0 of job 'x/y'" + budget):
        profile_from_replay("x", "y", _endless, 2)
