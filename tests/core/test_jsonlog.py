"""The shared JSONL-log primitive and every store that reads through it.

One torn-input policy for all eight readers: a line that fails to
decode, fails to parse, or is not a JSON object is skipped and counted;
an object of another format is skipped silently; every intact record
survives; nothing raises.  Four of the readers read the result cache's
log, one per record kind it holds (rows, failure strikes, verdicts) and
its compaction over all three.
"""

import json
import sys
import threading

import pytest

from repro import jsonlog
from repro.analysis.diagnostics import DiagnosticReport
from repro.core.cache import ResultCache, config_snapshot
from repro.core.experiment import ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.runner import Row
from repro.errors import ConfigurationError
from repro.service.jobs import JobLedger, JobRecord, JobSpec
from repro.telemetry import runlog
from repro.telemetry.manifest import manifest_configs
from repro.telemetry.metrics import MetricsRegistry, aggregate
from repro.telemetry.spans import SpanRecorder


def _config(i):
    return ExperimentConfig(app="ffvc", n_ranks=(1, 2, 4)[i], n_threads=2)


# Each store: file name, writer of intact record ``i`` (0, 1, 2), and a
# reader returning (ids of the intact records that survived, torn count).
def _cache_write(d, i):
    ResultCache(d).put(_config(i), Row(_config(i), 1.0 + i, 2.0, 3.0, 0.1))


def _cache_read(d):
    cache = ResultCache(d)
    return {i for i in range(3) if _config(i) in cache}, cache.torn_lines


# strike records, read through the quarantine view
def _journal_write(d, i):
    SweepJournal(ResultCache(d)).record("s", _config(i), ok=False)


def _journal_read(d):
    cache = ResultCache(d)
    journal = SweepJournal(cache)
    survived = {i for i in range(3)
                if journal.status("s", _config(i)) is not None}
    return survived, cache.torn_lines


# lint verdict records
def _lint_write(d, i):
    ResultCache(d).put_verdict(_config(i), DiagnosticReport(subject=f"s{i}"))


def _lint_read(d):
    cache = ResultCache(d)
    survived = {i for i in range(3) if cache.verdict(_config(i)) is not None}
    return survived, cache.torn_lines


def _mixed_write(d, i):
    # all three kinds; the strike follows the row, so no row clears it
    _cache_write(d, i)
    _lint_write(d, i)
    _journal_write(d, i)


def _compact_read(d):
    stats = ResultCache(d).compact()
    rows, torn_after = _cache_read(d)
    assert torn_after == 0  # the rewritten file is clean
    strikes, verdicts = _journal_read(d)[0], _lint_read(d)[0]
    return rows & strikes & verdicts, stats["dropped_torn"]


def _ledger_write(d, i):
    spec = JobSpec(job_id=f"job-{i}", name=f"n{i}", engine="analytic",
                   configs=(_config(i),))
    JobLedger(d / JobLedger.FILENAME).record_submit(JobRecord(spec))


def _ledger_read(d):
    ledger = JobLedger(d / JobLedger.FILENAME)
    replayed = ledger.replay()
    return {int(job_id[4:]) for job_id in replayed}, ledger.torn_lines


# The metric and span records of a run log, read back through its scan
# (the ids keep the names of the per-kind file readers the scan replaced).
RUN_LOG = "runs/log.jsonl"


def _run_log_sink(d, kind):
    return lambda rec: jsonlog.append(d / RUN_LOG,
                                      runlog.record("r", kind, rec))


def _metrics_write(d, i):
    log = runlog.RunLog(d / RUN_LOG)
    MetricsRegistry(log, "r").count(f"m{i}")
    log.flush()


def _metrics_read(d):
    run = runlog.scan(d / "runs")["r"]
    aggregates, malformed = aggregate(run.metrics)
    return {int(name[1:]) for name in aggregates}, \
        run.torn_lines + malformed


def _spans_write(d, i):
    with SpanRecorder(_run_log_sink(d, "span")).span(f"s{i}"):
        pass


def _spans_read(d):
    run = runlog.scan(d / "runs")["r"]
    return {int(span["name"][1:]) for span in run.spans}, run.torn_lines


def _configs_write(d, i):
    # a config record and a manifest naming it, flushed as one write
    log = runlog.RunLog(d / RUN_LOG)
    digest = log.add_config(_config(i), *config_snapshot(_config(i)))
    log.add(runlog.record(f"r{i}", "manifest", {
        "run_id": f"r{i}", "kind": "sweep", "name": f"n{i}",
        "engine": "event", "configs": [digest]}))
    log.flush()


def _configs_read(d):
    runs = runlog.scan(d / "runs").values()
    survived = {int(run.run_id[1:]) for run in runs
                if _resolves(run, _config(int(run.run_id[1:])))}
    return survived, max(run.torn_lines for run in runs)


def _resolves(run, config):
    try:
        return manifest_configs(run.checked_manifest()) == [config]
    except ConfigurationError:
        return False


READERS = {
    "cache-load": (ResultCache.FILENAME, _cache_write, _cache_read),
    "cache-compact": (ResultCache.FILENAME, _mixed_write, _compact_read),
    "journal": (ResultCache.FILENAME, _journal_write, _journal_read),
    "lint-cache": (ResultCache.FILENAME, _lint_write, _lint_read),
    "ledger-replay": (JobLedger.FILENAME, _ledger_write, _ledger_read),
    "read_metrics": (RUN_LOG, _metrics_write, _metrics_read),
    "read_spans": (RUN_LOG, _spans_write, _spans_read),
    "read_configs": (RUN_LOG, _configs_write, _configs_read),
}

# (bad bytes appended after record 0, torn count, survivors).  The
# mid-UTF-8 tail has no newline, so record 1 merges into the torn line.
INPUTS = {
    "mid-utf8-tail": (b'{"format":1,"name":"caf\xc3', 1, {0, 2}),
    "partial-json": (b'{"format": 1, "key": "tru\n', 1, {0, 1, 2}),
    "list-line": (b"[1,2]\n", 1, {0, 1, 2}),
    "scalar-line": (b"7\n", 1, {0, 1, 2}),
    "wrong-format": (b'{"format": 99, "key": "x", "name": "x"}\n', 0,
                     {0, 1, 2}),
}


@pytest.mark.parametrize("bad", INPUTS)
@pytest.mark.parametrize("reader", READERS)
def test_torn_input_is_counted_and_skipped(tmp_path, reader, bad):
    filename, write, read = READERS[reader]
    data, torn, survivors = INPUTS[bad]
    write(tmp_path, 0)
    with open(tmp_path / filename, "ab") as fh:
        fh.write(data)
    write(tmp_path, 1)
    write(tmp_path, 2)
    assert read(tmp_path) == (survivors, torn)


def test_append_bytes_match_the_canonical_line(tmp_path):
    path = tmp_path / "sub" / "log.jsonl"
    record = {"format": 1, "b": [1.5, None], "a": "é", "n": float("nan")}
    jsonlog.append(path, record)
    expected = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("value", [
    {"format": 1, "b": [1.5, None, -0.0, 1e300, 5e-324], "a": "é\x00\u2028"},
    {"n": float("nan"), "i": float("inf"), "m": float("-inf")},
    {"z": {"y": [[], {}], "x": True, "w": False}, "big": 2**70, "neg": -3},
    [{"k": 1}, "s", 0.1], "plain", 7, None,
], ids=repr)
def test_encode_is_the_stdlib_encoding(value):
    """The encoder built once writes what ``json`` writes with the same
    settings, so digests and log lines do not depend on which ran."""
    assert jsonlog.encode(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"))


def test_encode_falls_back_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert jsonlog._canonical_encoder() == jsonlog._ENCODER.encode


def test_rewrite_round_trips_appended_bytes(tmp_path):
    path = tmp_path / "log.jsonl"
    for i in range(3):
        jsonlog.append(path, {"format": 1, "i": i, "x": 0.1 * i})
    before = path.read_bytes()
    records, torn = jsonlog.read(path, 1)
    jsonlog.rewrite(path, records)
    assert torn == 0 and path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]


def test_append_creates_parents_only_when_missing(tmp_path, monkeypatch):
    path = tmp_path / "a" / "b" / "log.jsonl"
    made = []
    mkdir = type(path).mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(type(path), "mkdir", counting_mkdir)
    jsonlog.append(path, {"format": 1, "i": 0})
    assert made[0] == path.parent
    made.clear()
    for i in (1, 2):
        jsonlog.append(path, {"format": 1, "i": i})
    assert made == []  # the directory exists now: no more mkdir
    assert [r["i"] for r in jsonlog.read(path, 1)[0]] == [0, 1, 2]


def test_replace_file_swaps_whole_contents(tmp_path):
    path = tmp_path / "f.json"
    jsonlog.replace_file(path, b"old\n")
    jsonlog.replace_file(path, b"new\n", durable=True)
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_replace_file_removes_its_temp_on_error(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    path.write_bytes(b"kept\n")

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(jsonlog.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        jsonlog.replace_file(path, b"lost\n")
    monkeypatch.undo()
    assert path.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_buffered_log_keeps_every_record_across_threads(tmp_path,
                                                        monkeypatch):
    """Threads adding to one log while others flush it: every record
    lands exactly once (a lost or doubled batch would break this)."""
    monkeypatch.setattr(jsonlog, "FLUSH_RECORDS", 7)
    log = jsonlog.Buffered(tmp_path / "log.jsonl")
    n_threads, per_thread = 8, 500

    def work(t):
        for i in range(per_thread):
            log.add({"format": 1, "t": t, "i": i})
            if i % 97 == 0:
                log.flush()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    log.flush()
    records, torn = jsonlog.read(tmp_path / "log.jsonl", 1)
    assert torn == 0
    assert sorted((r["t"], r["i"]) for r in records) == [
        (t, i) for t in range(n_threads) for i in range(per_thread)]
