"""A run pays its telemetry once: buffered records in the process's
run log, the write count of one run, no file created after the first
run, the flush bounds, and what a hard kill leaves."""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import repro
from repro import jsonlog, telemetry
from repro.analytic import engine as analytic_engine
from repro.core.cache import ResultCache, model_fingerprint
from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
from repro.core.runner import run_config, run_sweep
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.telemetry import manifest as manifest_mod
from repro.telemetry.metrics import aggregate
from repro.telemetry.report import RunReport

from .conftest import log_files, only_run

F1 = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
      for r, t in MPI_OMP_CONFIGS]


def _lines(path):
    return len(path.read_bytes().splitlines()) if path.exists() else 0


class TestSweepKey:
    def test_keys_of_recorded_runs_are_unchanged(self):
        """Runs recorded before the manifest reused its config dicts
        must still be found by resume: pin the key bytes."""
        configs = F1 + [ExperimentConfig(
            app="mvmc", dataset="large", n_ranks=4, n_threads=12,
            binding=ThreadBinding("stride", 4),
            allocation=ProcessAllocation("cyclic"),
            options_preset="tuned", data_policy="serial-init")]
        manifest = manifest_mod.build_manifest(
            run_id="r", kind="sweep", name="f1-ffvc", configs=configs,
            engine="analytic")
        assert manifest["sweep_key"] == "df5b59eabffdb8ac"
        single = manifest_mod.build_manifest(
            run_id="r", kind="config", name="x", configs=configs[:1],
            engine="event")
        assert single["sweep_key"] == "58239a3abdd27a68"


class _CountingOS(types.SimpleNamespace):
    """``os`` for :mod:`repro.jsonlog` that logs each write and replace
    by the base name of the file it lands in."""

    def __init__(self):
        super().__init__(calls=[], names={})

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, mode=0o777):
        fd = os.open(path, flags, mode)
        self.names[fd] = Path(path).name
        return fd

    def write(self, fd, data):
        self.calls.append(("write", self.names[fd]))
        return os.write(fd, data)

    def replace(self, src, dst):
        self.calls.append(("replace", Path(dst).name))
        return os.replace(src, dst)


def test_one_run_appends_twice_to_the_log(results_dir, monkeypatch):
    """One 9-config analytic sweep: the opening manifest, then one batch
    with every event, the summary and the closing manifest — however
    many events the sweep records."""
    counting = _CountingOS()
    monkeypatch.setattr(jsonlog, "os", counting)
    monkeypatch.setattr(jsonlog, "FLUSH_SECONDS", float("inf"))
    sweep = run_sweep("writes", F1, engine="analytic")
    assert len(sweep.rows) == len(F1)
    (log,) = log_files(results_dir)
    assert counting.calls == [("write", log.name)] * 2
    run = only_run(results_dir)
    aggs, _ = aggregate(run.metrics)
    assert run.torn_lines == 0 and aggs["run.opened"].total == 1


def _kinds(log):
    """Record kind -> count, in one log."""
    counts = {}
    for line in log.read_text().splitlines():
        kind = next(k for k in telemetry.runlog.KINDS if k in json.loads(line))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


class TestContentRecords:
    """A log holds each config once and the session fields once."""

    def test_two_sweeps_write_each_config_once(self, results_dir):
        for name in ("first", "second"):
            run_sweep(name, F1, engine="analytic")
        (log,) = log_files(results_dir)
        counts = _kinds(log)
        assert (counts["config"], counts["session"]) == (len(F1), 1)
        assert (counts["manifest"], counts["summary"]) == (4, 2)
        assert [len(run.rows()) for run in
                telemetry.runlog.scan(results_dir / "runs").values()] \
            == [len(F1)] * 2

    def test_resumed_run_writes_its_own_config_records(self, results_dir,
                                                       tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("res", F1, cache, engine="analytic")
        run_sweep("res", F1, cache, engine="analytic", resume=True)
        first, resumed = log_files(results_dir)
        assert _kinds(first)["config"] == _kinds(resumed)["config"] \
            == len(F1)
        first.unlink()  # the resumed log resolves on its own
        run = only_run(results_dir)
        assert manifest_mod.manifest_configs(run.checked_manifest()) == F1
        assert [row.config for row in run.rows()] == F1


def test_runs_after_the_first_create_no_file(results_dir, monkeypatch,
                                             tmp_path):
    """After a process's first recorded run, 20 more runs create no
    file and no directory, and rename nothing."""
    run_config(F1[0], None, engine="analytic")
    before = sorted(tmp_path.rglob("*"))
    created, renames = [], []
    real_open = os.open

    def counting_open(path, flags, mode=0o777, **kw):
        if flags & os.O_CREAT and not os.path.exists(path):
            created.append(path)
        return real_open(path, flags, mode, **kw)

    monkeypatch.setattr(os, "open", counting_open)
    for name in ("mkdir", "makedirs"):
        monkeypatch.setattr(os, name, lambda path, *a, **kw:
                            created.append(path))
    for name in ("replace", "rename"):
        monkeypatch.setattr(os, name, lambda *a: renames.append(a))
    for i in range(10):
        run_sweep(f"more-{i}", F1[:2], {}, engine="analytic")
        run_config(F1[i % len(F1)], None, engine="analytic")
    assert created == [] and renames == []
    assert sorted(tmp_path.rglob("*")) == before
    assert len(RunReport.load(
        list(telemetry.runlog.scan(results_dir / "runs"))[-1],
        results_dir).rows) == 1


def test_counters_write_one_record_per_name_per_flush(results_dir,
                                                      monkeypatch, tmp_path):
    """A store-session round in small: a sweep scored and cached, then
    two passes through fresh caches.  Each counter
    writes one record per name per flush, however many events it
    counts; a flush in mid-sweep starts a second record."""
    monkeypatch.setattr(jsonlog, "FLUSH_SECONDS", float("inf"))
    real_put = ResultCache.put
    stores = []

    def put(cache, key, row):
        real_put(cache, key, row)
        stores.append(key)
        if len(stores) == 5:
            telemetry.current_run().log.flush()

    monkeypatch.setattr(ResultCache, "put", put)
    run_sweep("write", F1, ResultCache(tmp_path / "cache"), engine="analytic")
    for p in range(2):
        run_sweep(f"read-{p}", F1, ResultCache(tmp_path / "cache"),
                  engine="analytic")
    (log,) = log_files(results_dir)
    written = {}
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("kind") == "counter":
            written.setdefault(rec["metric"], []).append(
                (rec["name"], rec["n"]))
    runs = telemetry.runlog.scan(results_dir / "runs")
    names = {run.checked_manifest()["name"]: run_id
             for run_id, run in runs.items()}
    # the flush after the fifth store splits the stores, and nothing
    # else; a success counts no journal event besides its store
    assert sorted(written[names["write"]]) == [
        ("cache.miss", 9), ("cache.store", 4), ("cache.store", 5),
        ("engine.pick.analytic", 1)]
    for p in range(2):
        assert written[names[f"read-{p}"]] == [("cache.hit", 9)]
    aggs, torn = aggregate(runs[names["write"]].metrics)
    assert torn == 0 and aggs["cache.store"].total == len(F1)


class TestFlushBounds:
    """Both bounds flush a long sweep before its finalize."""

    #: Lines the opening flush of the 2-config sweep writes: the session
    #: record, the two config records and the manifest.
    OPENING = 4

    def _sweep_probing(self, monkeypatch, probe):
        real = analytic_engine.score_configs

        def score(configs):
            probe(telemetry.current_run())
            return real(configs)

        monkeypatch.setattr(analytic_engine, "score_configs", score)
        return run_sweep("long", F1[:2], engine="analytic")

    def test_record_bound(self, results_dir, monkeypatch):
        seen = []

        def probe(run):
            path = run.log.path
            before = _lines(path)
            pending = len(run.log._pending)
            # gauge events queue one record each (counter events fold)
            for _ in range(jsonlog.FLUSH_RECORDS - pending):
                telemetry.gauge("test.event", 1)
            seen.append((before, _lines(path), pending))

        self._sweep_probing(monkeypatch, probe)
        # the opening manifest, then one batch of FLUSH_RECORDS records:
        # the ones queued before the probe and every probe event
        ((before, after, pending),) = seen
        assert (before, after) == (self.OPENING,
                                   self.OPENING + jsonlog.FLUSH_RECORDS)
        aggs, _ = aggregate(only_run(results_dir).metrics)
        assert aggs["test.event"].total == jsonlog.FLUSH_RECORDS - pending

    def test_time_bound(self, results_dir, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(jsonlog, "time",
                            types.SimpleNamespace(monotonic=lambda: clock[0]))
        seen = []

        def probe(run):
            path = run.log.path
            telemetry.count("test.early")
            before = _lines(path)
            clock[0] += jsonlog.FLUSH_SECONDS
            telemetry.count("test.late")
            seen.append((before, _lines(path)))

        self._sweep_probing(monkeypatch, probe)
        ((before, after),) = seen
        # everything pending, at once
        assert before == self.OPENING and after >= self.OPENING + 2
        aggs, _ = aggregate(only_run(results_dir).metrics)
        assert aggs["test.late"].total == 1


_CHILD = """
import sys, time
from pathlib import Path
from repro import jsonlog
from repro.core import parallel
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_sweep

cache_dir, marker = sys.argv[1], Path(sys.argv[2])
jsonlog.FLUSH_RECORDS = 2  # some records reach the disk before the kill
real = parallel.simulate_config
done = []

def simulate(config):
    outcome = real(config)
    done.append(config)
    if len(done) == 3:
        marker.touch()
        time.sleep(120)
    return outcome

parallel.simulate_config = simulate
configs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
           for r, t in ((1, 2), (2, 2), (4, 2), (2, 4))]
run_sweep("crash", configs, ResultCache(cache_dir), engine="event")
"""


_CHILD_OPEN = """
import sys, time
from pathlib import Path
from repro import jsonlog
from repro.analytic import engine
from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
from repro.core.runner import run_sweep

marker = Path(sys.argv[1])
jsonlog.FLUSH_SECONDS = float("inf")  # only the opening flush is written

def score(configs):
    marker.touch()
    time.sleep(120)

engine.score_configs = score
run_sweep("killed", [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
                     for r, t in MPI_OMP_CONFIGS], engine="analytic")
"""


def _kill_when_marked(script, marker, *args):
    """Run ``script`` in a child until it touches ``marker``, then
    SIGKILL it."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    child = subprocess.Popen(
        [sys.executable, "-c", script, *args, str(marker)],
        env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():
            if child.poll() is not None:
                pytest.fail("child exited before the kill: "
                            + child.stderr.read().decode())
            if time.monotonic() > deadline:
                pytest.fail("child never reached the marker")
            time.sleep(0.02)
    finally:
        child.kill()
        child.wait()
        child.stderr.close()


def test_sigkill_right_after_open_leaves_resolvable_configs(results_dir,
                                                            tmp_path):
    """The opening flush holds the session, every config the manifest
    names, and the manifest: a run killed before any other write still
    reads, configs and all."""
    _kill_when_marked(_CHILD_OPEN, tmp_path / "opened")
    (log,) = log_files(results_dir)
    assert _kinds(log) == {"session": 1, "config": len(F1), "manifest": 1}
    run = only_run(results_dir)
    manifest = run.checked_manifest()
    assert manifest["status"] == "running"
    assert manifest_mod.manifest_configs(manifest) == F1
    assert manifest["model_fingerprint"] == model_fingerprint()


def test_sigkill_mid_sweep_leaves_a_readable_resumable_run(results_dir,
                                                           tmp_path):
    cache_dir = tmp_path / "cache"
    _kill_when_marked(_CHILD, tmp_path / "mid-sweep", str(cache_dir))

    run = only_run(results_dir)
    manifest = run.checked_manifest()
    assert manifest["status"] == "running"
    report = RunReport.load(manifest["run_id"], results_dir)
    assert report.aggregates["run.opened"].total == 1  # flushed tail
    assert report.torn_lines <= 1

    configs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
               for r, t in ((1, 2), (2, 2), (4, 2), (2, 4))]
    resumed = run_sweep("crash", configs, ResultCache(cache_dir),
                        engine="event", resume=True)
    assert len(resumed.rows) == len(configs)
    resumed_run = only_run(results_dir)
    assert resumed_run.run_id == run.run_id
    assert len(resumed_run.files) == 2  # the killed process's log + ours
    manifest = resumed_run.checked_manifest()
    assert manifest["resumed_from"] == manifest["run_id"]
    assert manifest["status"] == "completed"
