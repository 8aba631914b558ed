"""Tests for RunContext / run_scope: recording, nesting, resume."""

import json
import threading

import pytest

from repro import telemetry
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config, run_sweep
from repro.telemetry import run as run_mod
from repro.telemetry.metrics import aggregate

from .conftest import log_files, only_run

CFGS = [ExperimentConfig(app="ccs-qcd", n_ranks=r, n_threads=48 // r)
        for r in (4, 8)]


class TestRecording:
    def test_sweep_records_all_four_record_kinds(self, results_dir):
        sweep = run_sweep("rec", CFGS, {}, engine="analytic")
        assert len(sweep.rows) == 2
        (log,) = log_files(results_dir)
        kinds = [next(k for k in telemetry.runlog.KINDS if k in rec)
                 for rec in map(json.loads, log.read_text().splitlines())]
        # the log's session and config records come first
        assert kinds[:3] == ["session", "config", "config"]
        kinds = kinds[3:]
        # the run opens with a manifest and closes with summary, manifest
        assert kinds[0] == "manifest" and kinds[-2:] == ["summary",
                                                        "manifest"]
        assert {"metric", "span"} <= set(kinds)
        run = only_run(results_dir)
        manifest = run.checked_manifest()
        assert manifest["kind"] == "sweep"
        assert manifest["status"] == "completed"
        assert manifest["n_rows"] == 2
        assert manifest["resumed_from"] is None
        aggs, _ = aggregate(run.metrics)
        assert aggs["run.opened"].total == 1
        assert aggs["sweep.rows"].last == 2

    def test_summary_reloads_with_stock_loader(self, results_dir):
        from repro.core.persistence import sweep_from_payload

        run_sweep("roundtrip", CFGS, {}, engine="analytic")
        loaded = sweep_from_payload(only_run(results_dir).summary, "run")
        assert [r.label for r in loaded.rows] == \
            [c.label() for c in CFGS]

    def test_single_config_records_too(self, results_dir):
        row = run_config(CFGS[0], None, engine="analytic")
        manifest = only_run(results_dir).checked_manifest()
        assert manifest["kind"] == "config"
        assert manifest["n_rows"] == 1
        assert row.elapsed > 0

    def test_nested_sweep_becomes_span_not_second_run(self, results_dir):
        with telemetry.run_scope(kind="sweep", name="outer", configs=CFGS,
                                 engine="analytic") as outer:
            assert outer is not None
            inner = run_sweep("inner", CFGS, {}, engine="analytic")
            outer.attach_sweep(inner)
        run = only_run(results_dir)  # exactly one run
        names = [s["name"] for s in run.spans]
        assert names.count("sweep") == 2  # outer root + nested-as-span

    def test_failed_sweep_leaves_failed_manifest(self, results_dir):
        with pytest.raises(RuntimeError):
            with telemetry.run_scope(kind="sweep", name="boom",
                                     configs=CFGS, engine="event"):
                raise RuntimeError("mid-sweep crash")
        manifest = only_run(results_dir).checked_manifest()
        assert manifest["status"] == "failed"
        assert "RuntimeError" in manifest["error"]

    def test_off_switch_records_nothing(self, results_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        run_sweep("dark", CFGS, {}, engine="analytic")
        assert not (results_dir / "runs").exists()

    def test_suppressed_scope_records_nothing(self, results_dir):
        from repro.telemetry import state

        with state.suppressed():
            run_sweep("dark", CFGS, {}, engine="analytic")
        assert not (results_dir / "runs").exists()

    def test_suppression_is_scoped_to_its_thread(self, results_dir):
        """A thread inside ``suppressed()`` (a scheduler fallback
        worker) must not silence the counts another thread records into
        the active run at the same time."""
        from repro.telemetry import state

        inside, release = threading.Event(), threading.Event()

        def quiet_worker():
            with state.suppressed():
                telemetry.count("probe.dropped")
                inside.set()
                release.wait(10.0)

        worker = threading.Thread(target=quiet_worker)
        with telemetry.run_scope(kind="sweep", name="threads",
                                 configs=CFGS, engine="analytic"):
            worker.start()
            assert inside.wait(10.0)
            telemetry.count("probe.counted")
            assert telemetry.enabled()
            release.set()
            worker.join(10.0)
        assert not worker.is_alive()
        aggs, _ = aggregate(only_run(results_dir).metrics)
        assert aggs["probe.counted"].total == 1
        assert "probe.dropped" not in aggs

    def test_suppression_depth_survives_thread_contention(self,
                                                          results_dir):
        """Many threads nesting ``suppressed()`` at once: each sees only
        its own depth, and every depth unwinds to nothing."""
        import sys

        from repro.telemetry import state

        wrong = []

        def churn():
            for _ in range(200):
                with state.suppressed():
                    with state.suppressed():
                        if state.enabled():
                            wrong.append("inner block recording")
                    if state.enabled():
                        wrong.append("outer block recording")
                if not state.enabled():
                    wrong.append("still silenced after both blocks")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert state._suppressed_threads == {}


class TestResume:
    def test_resume_reenters_original_run(self, results_dir, tmp_path):
        """The resume satellite: same run_id, records appended under it
        (none replaced), and an explicit ``resumed_from`` lineage mark."""
        cache = ResultCache(tmp_path / "cache")
        run_sweep("res", CFGS, cache, engine="analytic")
        first = only_run(results_dir)
        created = first.checked_manifest()["created"]

        resumed = run_sweep("res", CFGS, cache, engine="analytic",
                            resume=True)
        assert len(resumed.rows) == 2
        # still exactly one run, under the original id
        run = only_run(results_dir)
        assert run.run_id == first.run_id
        manifest = run.checked_manifest()
        assert manifest["resumed_from"] == first.run_id
        assert manifest["created"] == created
        assert len(run.metrics) > len(first.metrics)  # appended
        aggs, _ = aggregate(run.metrics)
        assert aggs["run.opened"].total == 2
        assert aggs["run.resumed"].total == 1
        # the second pass was served from the cache
        assert aggs["cache.hit"].total >= 2

    def test_resume_from_a_log_named_before_the_original(
            self, results_dir, tmp_path, monkeypatch):
        """A process whose log sorts before the log of the run it
        resumes: the resumed records still read as the latest."""
        import os

        from repro.telemetry.report import RunReport, list_runs

        cache = ResultCache(tmp_path / "cache")
        run_sweep("first", CFGS, cache, engine="analytic")
        real = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: real + 1)
        with pytest.raises(RuntimeError):
            with telemetry.run_scope(kind="sweep", name="res", configs=CFGS,
                                     engine="analytic"):
                raise RuntimeError("killed mid-sweep")
        monkeypatch.setattr(os, "getpid", lambda: real)
        run_sweep("res", CFGS, cache, engine="analytic", resume=True)

        entry = next(e for e in list_runs(results_dir) if e.name == "res")
        assert (entry.status, entry.n_rows) == ("completed", 2)
        assert entry.resumed_from == entry.run_id
        report = RunReport.load(entry.run_id, results_dir)
        assert len(report.rows) == 2 and report.manifest["error"] is None
        # the resume wrote to a new log, named after the original's
        first, original, resumed = log_files(results_dir)
        assert report.files == [original, resumed]

    def test_different_sweep_gets_fresh_run(self, results_dir, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("a", CFGS, cache, engine="analytic")
        run_sweep("b", CFGS, cache, engine="analytic", resume=True)
        assert len(telemetry.runlog.scan(results_dir / "runs")) == 2
        assert len(log_files(results_dir)) == 1  # one log per process

    def test_find_resumable_skips_corrupt_dirs(self, results_dir,
                                               tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("res", CFGS, cache, engine="analytic")
        root = results_dir / "runs"
        (root / "junk").mkdir()
        (root / "junk" / "manifest.json").write_text("{not json")
        with open(root / "junk.jsonl", "w") as fh:
            fh.write('{not json\n{"format": 1, "manifest": "x"}\n')
        run = only_run_excluding(results_dir, "x")
        key = run.checked_manifest()["sweep_key"]
        assert run_mod.find_resumable(root, key)["run_id"] == run.run_id


class TestLogIsolation:
    def test_changed_pid_opens_a_new_log(self, results_dir, monkeypatch):
        import os

        run_sweep("parent", CFGS, {}, engine="analytic")
        real = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: real + 1)
        run_sweep("child", CFGS, {}, engine="analytic")
        # <timestamp>-<pid>-<random tail>.jsonl
        assert [log.name.split("-")[2] for log in log_files(results_dir)] \
            == [str(real), str(real + 1)]
        runs = telemetry.runlog.scan(results_dir / "runs").values()
        assert [run.files for run in runs] == \
            [[log] for log in log_files(results_dir)]

    def test_old_run_directories_are_ignored(self, results_dir):
        from repro.cli import main
        from repro.telemetry.report import RunReport, list_runs

        old = results_dir / "runs" / "20200101-000000-abcdef"
        old.mkdir(parents=True)
        (old / "manifest.json").write_text(json.dumps(
            {"format": 1, "run_id": old.name, "kind": "sweep",
             "name": "old", "configs": [], "engine": "event"}))
        (old / "metrics.jsonl").write_text("")
        run_sweep("new", CFGS, {}, engine="analytic")
        (entry,) = list_runs(results_dir)
        assert entry.name == "new"
        assert RunReport.load(entry.run_id, results_dir).rows
        assert main(["report", entry.run_id,
                     "--results-dir", str(results_dir)]) == 0
        assert main(["report", old.name,
                     "--results-dir", str(results_dir)]) == 2


def only_run_excluding(results_dir, exclude):
    (run,) = [run for run_id, run
              in telemetry.runlog.scan(results_dir / "runs").items()
              if run_id != exclude]
    return run
