"""Tests for RunContext / run_scope: recording, nesting, resume."""

import json
import threading

import pytest

from repro import telemetry
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config, run_sweep
from repro.telemetry import run as run_mod
from repro.telemetry.metrics import read_metrics

CFGS = [ExperimentConfig(app="ccs-qcd", n_ranks=r, n_threads=48 // r)
        for r in (4, 8)]


def _only_run_dir(results_dir):
    (entry,) = list((results_dir / "runs").iterdir())
    return entry


class TestRecording:
    def test_sweep_records_all_four_files(self, results_dir):
        sweep = run_sweep("rec", CFGS, {}, engine="analytic")
        assert len(sweep.rows) == 2
        run_dir = _only_run_dir(results_dir)
        for name in ("manifest.json", "metrics.jsonl", "spans.jsonl",
                     "summary.json"):
            assert (run_dir / name).exists(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        assert manifest["status"] == "completed"
        assert manifest["n_rows"] == 2
        assert manifest["resumed_from"] is None
        aggs, _ = read_metrics(run_dir / "metrics.jsonl")
        assert aggs["run.opened"].total == 1
        assert aggs["sweep.rows"].last == 2

    def test_summary_reloads_with_stock_loader(self, results_dir):
        from repro.core.persistence import load_sweep

        run_sweep("roundtrip", CFGS, {}, engine="analytic")
        run_dir = _only_run_dir(results_dir)
        loaded = load_sweep(run_dir / "summary.json")
        assert [r.label for r in loaded.rows] == \
            [c.label() for c in CFGS]

    def test_single_config_records_too(self, results_dir):
        row = run_config(CFGS[0], None, engine="analytic")
        run_dir = _only_run_dir(results_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "config"
        assert manifest["n_rows"] == 1
        assert row.elapsed > 0

    def test_nested_sweep_becomes_span_not_second_run(self, results_dir):
        from repro.telemetry.spans import read_spans

        with telemetry.run_scope(kind="sweep", name="outer", configs=CFGS,
                                 engine="analytic") as outer:
            assert outer is not None
            inner = run_sweep("inner", CFGS, {}, engine="analytic")
            outer.attach_sweep(inner)
        run_dir = _only_run_dir(results_dir)  # exactly one directory
        names = [s["name"] for s in
                 read_spans(run_dir / "spans.jsonl")[0]]
        assert names.count("sweep") == 2  # outer root + nested-as-span

    def test_failed_sweep_leaves_failed_manifest(self, results_dir):
        with pytest.raises(RuntimeError):
            with telemetry.run_scope(kind="sweep", name="boom",
                                     configs=CFGS, engine="event"):
                raise RuntimeError("mid-sweep crash")
        run_dir = _only_run_dir(results_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
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
        aggs, _ = read_metrics(_only_run_dir(results_dir) / "metrics.jsonl")
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
        """The resume satellite: same run_id, appended (not truncated)
        metrics.jsonl, and an explicit ``resumed_from`` lineage mark."""
        cache = ResultCache(tmp_path / "cache")
        run_sweep("res", CFGS, cache, engine="analytic")
        run_dir = _only_run_dir(results_dir)
        first = json.loads((run_dir / "manifest.json").read_text())
        lines_before = len(
            (run_dir / "metrics.jsonl").read_text().splitlines())

        resumed = run_sweep("res", CFGS, cache, engine="analytic",
                            resume=True)
        assert len(resumed.rows) == 2
        # still exactly one run directory, under the original id
        assert _only_run_dir(results_dir) == run_dir
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run_id"] == first["run_id"]
        assert manifest["resumed_from"] == first["run_id"]
        assert manifest["created"] == first["created"]
        lines_after = len(
            (run_dir / "metrics.jsonl").read_text().splitlines())
        assert lines_after > lines_before  # appended, not truncated
        aggs, _ = read_metrics(run_dir / "metrics.jsonl")
        assert aggs["run.opened"].total == 2
        assert aggs["run.resumed"].total == 1
        # the second pass was served from the cache
        assert aggs["cache.hit"].total >= 2

    def test_different_sweep_gets_fresh_run(self, results_dir, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("a", CFGS, cache, engine="analytic")
        run_sweep("b", CFGS, cache, engine="analytic", resume=True)
        assert len(list((results_dir / "runs").iterdir())) == 2

    def test_find_resumable_skips_corrupt_dirs(self, results_dir,
                                               tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("res", CFGS, cache, engine="analytic")
        root = results_dir / "runs"
        (root / "junk").mkdir()
        (root / "junk" / "manifest.json").write_text("{not json")
        run_dir = _only_run_dir_excluding(root, "junk")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert run_mod.find_resumable(root, manifest["sweep_key"]) == \
            run_dir.name


def _only_run_dir_excluding(root, exclude):
    (entry,) = [p for p in root.iterdir() if p.name != exclude]
    return entry
