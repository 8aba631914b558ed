"""A run pays its telemetry once: buffered metrics and spans, the write
count of one run, the flush bounds, and what a hard kill leaves."""

import os
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import jsonlog, telemetry
from repro.analytic import engine as analytic_engine
from repro.core.cache import ResultCache
from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
from repro.core.runner import run_sweep
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.telemetry import manifest as manifest_mod
from repro.telemetry.metrics import read_metrics
from repro.telemetry.report import RunReport
from repro.telemetry.spans import read_spans

F1 = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
      for r, t in MPI_OMP_CONFIGS]


def _only_run_dir(results_dir):
    (entry,) = list((results_dir / "runs").iterdir())
    return entry


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


def test_one_run_writes_each_file_once(results_dir, monkeypatch):
    """One 9-config analytic sweep: one append to each log and three
    atomic replaces, however many events the sweep records."""
    counting = _CountingOS()
    monkeypatch.setattr(jsonlog, "os", counting)
    monkeypatch.setattr(jsonlog, "FLUSH_SECONDS", float("inf"))
    sweep = run_sweep("writes", F1, engine="analytic")
    assert len(sweep.rows) == len(F1)
    writes = [name for op, name in counting.calls if op == "write"]
    appends = Counter(name for name in writes if not name.endswith(".tmp"))
    replaces = Counter(name for op, name in counting.calls
                       if op == "replace")
    assert appends == {"metrics.jsonl": 1, "spans.jsonl": 1}
    assert replaces == {"manifest.json": 2, "summary.json": 1}
    assert len(writes) == 5
    # and the single batch holds every event of the run
    aggs, torn = read_metrics(_only_run_dir(results_dir) / "metrics.jsonl")
    assert torn == 0 and aggs["run.opened"].total == 1


class TestFlushBounds:
    """Both bounds flush a long sweep before its finalize."""

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
            path = run.metrics.path
            before = _lines(path)
            for _ in range(jsonlog.FLUSH_RECORDS):
                telemetry.count("test.event")
            seen.append((before, _lines(path)))

        self._sweep_probing(monkeypatch, probe)
        assert seen == [(0, jsonlog.FLUSH_RECORDS)]
        aggs, _ = read_metrics(_only_run_dir(results_dir) / "metrics.jsonl")
        assert aggs["test.event"].total == jsonlog.FLUSH_RECORDS

    def test_time_bound(self, results_dir, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(jsonlog, "time",
                            types.SimpleNamespace(monotonic=lambda: clock[0]))
        seen = []

        def probe(run):
            path = run.metrics.path
            telemetry.count("test.early")
            before = _lines(path)
            clock[0] += jsonlog.FLUSH_SECONDS
            telemetry.count("test.late")
            seen.append((before, _lines(path)))

        self._sweep_probing(monkeypatch, probe)
        ((before, after),) = seen
        assert before == 0 and after >= 2  # everything pending, at once
        aggs, _ = read_metrics(_only_run_dir(results_dir) / "metrics.jsonl")
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


def test_sigkill_mid_sweep_leaves_a_readable_resumable_run(results_dir,
                                                           tmp_path):
    cache_dir = tmp_path / "cache"
    marker = tmp_path / "mid-sweep"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(cache_dir), str(marker)],
        env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():
            if child.poll() is not None:
                pytest.fail("child exited before the kill: "
                            + child.stderr.read().decode())
            if time.monotonic() > deadline:
                pytest.fail("child never reached the third config")
            time.sleep(0.02)
    finally:
        child.kill()
        child.wait()
        child.stderr.close()

    run_dir = _only_run_dir(results_dir)
    manifest = manifest_mod.read_manifest(run_dir)
    assert manifest["status"] == "running"
    report = RunReport.load(manifest["run_id"], results_dir)
    assert report.aggregates["run.opened"].total == 1  # flushed tail
    for reader, name in ((read_metrics, "metrics.jsonl"),
                         (read_spans, "spans.jsonl")):
        assert reader(run_dir / name)[1] <= 1

    configs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
               for r, t in ((1, 2), (2, 2), (4, 2), (2, 4))]
    resumed = run_sweep("crash", configs, ResultCache(cache_dir),
                        engine="event", resume=True)
    assert len(resumed.rows) == len(configs)
    assert _only_run_dir(results_dir) == run_dir
    manifest = manifest_mod.read_manifest(run_dir)
    assert manifest["resumed_from"] == manifest["run_id"]
    assert manifest["status"] == "completed"
