"""Job state machine and crash-durable ledger tests."""

import json
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentConfig
from repro.errors import ServiceError
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.service import jobs as jobs_mod
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    JobLedger,
    JobRecord,
    JobSpec,
    new_job_id,
)


def spec(name="f1", engine="event", n=2) -> JobSpec:
    configs = tuple(ExperimentConfig(app="ffvc", n_ranks=r, n_threads=2)
                    for r in range(1, n + 1))
    return JobSpec(job_id=new_job_id(), name=name, engine=engine,
                   configs=configs)


def test_job_ids_are_unique_and_sortable():
    ids = [new_job_id() for _ in range(100)]
    assert len(set(ids)) == 100


def test_spec_round_trip():
    original = spec(n=3)
    clone = JobSpec.from_dict(json.loads(json.dumps(original.to_dict())))
    assert clone == original


def test_legal_lifecycle():
    job = JobRecord(spec())
    assert job.state == QUEUED and not job.terminal
    job.transition(RUNNING)
    assert job.started_at is not None
    job.transition(COMPLETED)
    assert job.terminal and job.finished_at is not None


@pytest.mark.parametrize("path", [
    (RUNNING, QUEUED),             # no going back
    (COMPLETED, RUNNING),          # terminal states are final
    (CANCELLED, RUNNING),
    (FAILED, COMPLETED),
])
def test_illegal_transitions_raise(path):
    job = JobRecord(spec())
    job.state = path[0]
    with pytest.raises(ServiceError, match="illegal transition"):
        job.transition(path[1])


def test_queued_to_completed_is_illegal():
    job = JobRecord(spec())
    with pytest.raises(ServiceError):
        job.transition(COMPLETED)


def test_note_row_attribution():
    job = JobRecord(spec())
    for source in ("cache", "dedup", "executed", "executed"):
        job.note_row(source)
    assert (job.n_done, job.n_cache_hits, job.n_dedup_hits,
            job.n_executed) == (4, 1, 1, 2)


def test_ledger_replay_round_trip(tmp_path):
    ledger = JobLedger(tmp_path / "ledger.jsonl")
    a, b, c = spec("a"), spec("b"), spec("c")
    for s in (a, b, c):
        ledger.record_submit(JobRecord(s))
    done = JobRecord(b)
    done.transition(RUNNING)
    done.transition(COMPLETED)
    ledger.record_state(done)
    running = JobRecord(c)
    running.transition(RUNNING)
    ledger.record_state(running)

    fresh = JobLedger(tmp_path / "ledger.jsonl")
    incomplete = {s.job_id for s in fresh.incomplete()}
    assert incomplete == {a.job_id, c.job_id}  # completed b is gone
    assert fresh.replay()[b.job_id][1] == COMPLETED


def test_ledger_tolerates_torn_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = JobLedger(path)
    keeper = spec("keeper")
    ledger.record_submit(JobRecord(keeper))
    with open(path, "a") as fh:
        fh.write('{"format": 1, "event": "submitted", "job": {tru\n')
        fh.write("garbage\n")
        fh.write(json.dumps({"format": jobs_mod.LEDGER_FORMAT,
                             "event": "state", "job_id": "never-seen",
                             "state": "running"}) + "\n")
    survivors = JobLedger(path).incomplete()
    assert [s.job_id for s in survivors] == [keeper.job_id]


def test_ledger_counts_line_torn_mid_multibyte_utf8(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = JobLedger(path)
    survivor = spec("survivor")
    ledger.record_submit(JobRecord(survivor))
    # crash mid-write: a record containing "café" truncated inside the
    # two-byte é sequence — undecodable, not merely unparsable
    victim = spec("café")
    line = json.dumps({"format": jobs_mod.LEDGER_FORMAT,
                       "event": "submitted",
                       "job": victim.to_dict()},
                      ensure_ascii=False).encode()
    cut = line.index("é".encode()) + 1
    with open(path, "ab") as fh:
        fh.write(line[:cut] + b"\n")
    fresh = JobLedger(path)
    replayed = fresh.replay()
    assert fresh.torn_lines == 1
    assert set(replayed) == {survivor.job_id}


def test_ledger_torn_tail_merges_with_next_append(tmp_path):
    # a torn line with NO newline (the realistic crash shape) merges
    # with the next append into one undecodable line; that one merged
    # line is counted torn and later records survive
    path = tmp_path / "ledger.jsonl"
    ledger = JobLedger(path)
    with open(path, "ab") as fh:
        fh.write(b'{"format":1,"event":"submitted","job":{"na\xe2\x82')
    after = spec("after-the-crash")
    ledger.record_submit(JobRecord(after))
    keeper = spec("keeper")
    ledger.record_submit(JobRecord(keeper))
    fresh = JobLedger(path)
    replayed = fresh.replay()
    assert fresh.torn_lines == 1
    assert set(replayed) == {keeper.job_id}  # merged line ate "after"


def test_ledger_tolerates_duplicate_terminal_transition(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = JobLedger(path)
    job = JobRecord(spec("twice"))
    ledger.record_submit(job)
    job.transition(RUNNING)
    ledger.record_state(job)
    job.transition(CANCELLED)
    ledger.record_state(job)
    # crash between append and ack, replayed on restart as COMPLETED
    clone = JobRecord(job.spec)
    clone.state = COMPLETED
    ledger.record_state(clone)
    fresh = JobLedger(path)
    replayed = fresh.replay()
    assert fresh.duplicate_transitions == 1
    # first terminal state wins; the duplicate is observed, not applied
    assert replayed[job.job_id][1] == CANCELLED
    assert fresh.incomplete() == []


def test_replay_resets_tolerance_counters(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = JobLedger(path)
    ledger.record_submit(JobRecord(spec()))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe broken\n")
    assert ledger.replay() and ledger.torn_lines == 1
    # counters describe the *last* replay, they do not accumulate
    assert ledger.replay() and ledger.torn_lines == 1


def test_memory_only_ledger_is_silent(tmp_path):
    ledger = JobLedger.for_cache({})  # plain dict: no directory
    ledger.record_submit(JobRecord(spec()))
    assert ledger.replay() == {}
    assert ledger.incomplete() == []


def test_ledger_written_before_the_shared_codec_replays_unchanged():
    """``data/ledger-v1.jsonl`` was written by the ledger of an earlier
    release: submits with and without the scheduling fields (one with
    neither ``priority`` nor ``submitted_at``), transitions, and one
    duplicate terminal transition."""
    ledger = JobLedger(Path(__file__).parent / "data" / "ledger-v1.jsonl")
    c1 = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2)
    c2 = ExperimentConfig(app="ccs-qcd", n_ranks=4, n_threads=12,
                          allocation=ProcessAllocation("cyclic"),
                          binding=ThreadBinding("stride", 2))
    c3 = ExperimentConfig(app="mvmc", n_ranks=1, n_threads=48,
                          options_preset="tuned")
    expected = {
        "20260101-000000-0001-aaaaaa": (JobSpec(
            job_id="20260101-000000-0001-aaaaaa", name="legacy",
            engine="event", configs=(c1,)), COMPLETED),
        "20260101-000001-0002-bbbbbb": (JobSpec(
            job_id="20260101-000001-0002-bbbbbb", name="plain",
            engine="analytic", configs=(c1, c2),
            submitted_at=1767225601.25), FAILED),
        "20260101-000002-0003-cccccc": (JobSpec(
            job_id="20260101-000002-0003-cccccc", name="sched",
            engine="auto", configs=(c2, c3), priority="high",
            deadline_s=30.0, client="bench-7",
            submitted_at=1767225602.5), RUNNING),
        "20260101-000003-0004-dddddd": (JobSpec(
            job_id="20260101-000003-0004-dddddd", name="low",
            engine="event", configs=(c3,), priority="low",
            client="pid-42", submitted_at=1767225603.0), QUEUED),
        "20260101-000004-0005-eeeeee": (JobSpec(
            job_id="20260101-000004-0005-eeeeee", name="expiring",
            engine="event", configs=(c1,), deadline_s=0.5,
            submitted_at=1767225604.0), jobs_mod.EXPIRED),
    }
    replayed = ledger.replay()
    assert replayed == expected
    assert list(replayed) == list(expected)     # ledger order
    assert (ledger.torn_lines, ledger.duplicate_transitions) == (0, 1)
    assert [s.job_id for s in ledger.incomplete()] == [
        "20260101-000002-0003-cccccc", "20260101-000003-0004-dddddd"]
