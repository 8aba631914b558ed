"""Tests for `repro runs` / `repro report <run_id>` over recorded runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import jsonlog, telemetry
from repro.cli import EXIT_BROKEN_PIPE, main
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_sweep
from repro.errors import ConfigurationError
from repro.service.jobs import JobLedger
from repro.telemetry import runlog
from repro.telemetry.report import RunReport, list_runs, render_runs

from .conftest import log_files

CFGS = [ExperimentConfig(app="ccs-qcd", n_ranks=r, n_threads=48 // r)
        for r in (4, 8)]


@pytest.fixture
def warm_run(results_dir, tmp_path):
    """A sweep recorded twice: a cold pass, then a warm cache-served
    pass with the advise gate on — so the second run carries non-zero
    cache-hit *and* gate-timing metrics."""
    cache = ResultCache(tmp_path / "cache")
    run_sweep("warm", CFGS, cache, engine="analytic")
    run_sweep("warm-again", CFGS, cache, engine="analytic",
              advise="warn")
    return list_runs(results_dir, name="warm-again")[0]


class TestListRuns:
    def test_lists_and_filters(self, results_dir, warm_run):
        entries = list_runs(results_dir)
        assert [e.name for e in entries] == ["warm", "warm-again"]
        assert all(e.status == "completed" for e in entries)
        assert list_runs(results_dir, name="again") == [entries[-1]]
        assert list_runs(results_dir, status="failed") == []
        assert list_runs(results_dir, kind="sweep") == entries

    def test_render_runs_table(self, results_dir, warm_run):
        text = render_runs(list_runs(results_dir))
        assert "warm-again" in text
        assert "completed" in text
        assert "analytic" in text

    def test_empty_root(self, tmp_path):
        assert list_runs(tmp_path / "nothing") == []
        assert render_runs([]) == "no recorded runs"

    def test_run_id_prefix_resolution(self, results_dir, warm_run):
        root = results_dir / "runs"
        exact = runlog.find(root, warm_run.run_id)
        assert exact.run_id == warm_run.run_id
        # a unique prefix resolves; a shared one is an explicit error
        assert runlog.find(root, warm_run.run_id[:-1]) == exact
        shared = warm_run.run_id[:9]  # the YYYYmmdd- timestamp prefix
        with pytest.raises(ConfigurationError, match="ambiguous"):
            runlog.find(root, shared)
        with pytest.raises(ConfigurationError, match="no recorded run"):
            runlog.find(root, "zzz-nope")


class TestRunReport:
    def test_warm_run_has_cache_and_gate_metrics(self, results_dir,
                                                 warm_run):
        rep = RunReport.load(warm_run.run_id, results_dir)
        assert rep.metric("cache.hit") >= 2
        assert rep.cache_hit_rate() == 1.0
        gate = rep.aggregates["gate.advise.seconds"]
        assert gate.count == len(CFGS)
        assert gate.total > 0
        text = rep.render()
        assert "hit rate" in text
        assert "gate advise" in text

    @pytest.mark.parametrize("engine", ["event", "analytic"])
    def test_engine_picks_render_for_every_engine(self, results_dir,
                                                  engine):
        run_sweep(f"picks-{engine}", CFGS, {}, engine=engine)
        entry = list_runs(results_dir, name=f"picks-{engine}")[0]
        rep = RunReport.load(entry.run_id, results_dir)
        assert rep.metric(f"engine.pick.{engine}") == len(CFGS)
        assert f"engine picks: {engine} x{len(CFGS)}" in rep.render()

    def test_event_sweep_opens_no_config_span(self, results_dir):
        run_sweep("spans-event", CFGS, {}, engine="event")
        entry = list_runs(results_dir, name="spans-event")[0]
        spans = RunReport.load(entry.run_id, results_dir).spans
        names = [s["name"] for s in spans]
        assert names.count("score.event") == len(CFGS)
        assert "config" not in names

    def test_slowest_table_and_dict(self, results_dir, warm_run):
        rep = RunReport.load(warm_run.run_id, results_dir)
        slow = rep.slowest(1)
        assert len(slow) == 1
        assert slow[0].elapsed == max(r.elapsed for r in rep.rows)
        d = rep.to_dict()
        json.dumps(d)  # JSON-safe end to end
        assert d["cache_hit_rate"] == 1.0
        assert d["metrics"]["cache.hit"]["total"] >= 2

    def test_torn_cache_lines_surface_in_report(self, results_dir,
                                                tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep("torn", CFGS, cache, engine="analytic")
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "fp": "')  # torn record
        # a fresh cache instance re-reads the file inside a new run
        cache2 = ResultCache(tmp_path / "cache")
        run_sweep("torn-again", CFGS, cache2, engine="analytic")
        entry = list_runs(results_dir, name="torn-again")[0]
        rep = RunReport.load(entry.run_id, results_dir)
        assert rep.metric("cache.torn_lines") == 1
        assert "1 torn line(s) skipped on load" in rep.render()

    def test_torn_store_and_telemetry_lines_surface_in_report(
            self, results_dir, tmp_path):
        ledger = tmp_path / JobLedger.FILENAME
        ledger.write_bytes(b"7\n")  # not a record: torn
        # a ledger replayed inside a run counts the line in that run
        with telemetry.run_scope(kind="sweep", name="torn-ledger",
                                 configs=CFGS, engine="analytic"):
            JobLedger(ledger).replay()
        entry = list_runs(results_dir, name="torn-ledger")[0]
        (log,) = log_files(results_dir)
        with open(log, "ab") as fh:
            fh.write(b"[1]\n")
        rep = RunReport.load(entry.run_id, results_dir)
        assert rep.metric("ledger.torn_lines") == 1
        assert rep.torn_lines == 1 and rep.to_dict()["torn_lines"] == 1
        text = rep.render()
        assert "torn lines skipped: ledger 1, telemetry 1" in text
        assert f"artifacts: {log}" in text


class TestCli:
    def test_runs_and_report_verbs(self, results_dir, warm_run, capsys,
                                   tmp_path):
        assert main(["runs", "--results-dir", str(results_dir)]) == 0
        table = capsys.readouterr().out
        assert warm_run.run_id in table

        assert main(["runs", "--results-dir", str(results_dir),
                     "--latest"]) == 0
        assert capsys.readouterr().out.strip() == warm_run.run_id

        trace = tmp_path / "trace.json"
        out_json = tmp_path / "report.json"
        assert main(["report", warm_run.run_id,
                     "--results-dir", str(results_dir),
                     "--trace", str(trace),
                     "--json", str(out_json)]) == 0
        text = capsys.readouterr().out
        assert "hit rate" in text
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(out_json.read_text())["cache_hit_rate"] == 1.0

    def test_runs_json_and_filters(self, results_dir, warm_run, capsys):
        assert main(["runs", "--results-dir", str(results_dir),
                     "--name", "again", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in payload] == ["warm-again"]

    def test_report_unknown_run_fails(self, results_dir, warm_run,
                                      capsys):
        assert main(["report", "zzz-nope",
                     "--results-dir", str(results_dir)]) == 2
        assert "no recorded run" in capsys.readouterr().err

    def test_runs_latest_empty_fails(self, tmp_path, capsys):
        assert main(["runs", "--results-dir", str(tmp_path / "none"),
                     "--latest"]) == 1
        assert "no recorded runs" in capsys.readouterr().err

    def test_closed_stdout_exits_without_a_traceback(self, results_dir,
                                                     warm_run):
        """`repro report <id> | head -1` on a report far larger than a
        pipe holds: the reader goes after one line, and the command
        stops with status 141 and nothing on stderr."""
        (log,) = log_files(results_dir)
        errors = [{"config": f"cfg-{i}", "error": "SimulationError",
                   "message": "x" * 100} for i in range(3000)]
        jsonlog.append(log, runlog.record(warm_run.run_id, "manifest",
                                          {"errors": errors}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]),
             *filter(None, [env.get("PYTHONPATH")])])
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "report", warm_run.run_id,
             "--results-dir", str(results_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=120)
        finally:
            child.kill()
            child.stderr.close()
        assert first.startswith(f"run {warm_run.run_id}".encode())
        assert err == ""
        assert code == EXIT_BROKEN_PIPE
