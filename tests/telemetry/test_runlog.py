"""The run log names configs by digest: its content records, how the
reader resolves them, and logs written before they existed."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from repro import jsonlog
from repro.cli import main
from repro.core.cache import (config_digest, config_snapshot, config_text,
                              model_fingerprint, payload_digest)
from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
from repro.core.persistence import config_to_dict
from repro.core.runner import run_sweep
from repro.errors import ConfigurationError
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.telemetry import manifest as manifest_mod
from repro.telemetry import runlog
from repro.telemetry.report import RunReport

from .conftest import log_files, only_run

DATA = Path(__file__).parent / "data"

F1 = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
      for r, t in MPI_OMP_CONFIGS]

ODD = ExperimentConfig(
    app="nicam-dc", dataset="large", n_nodes=2, n_ranks=8, n_threads=6,
    binding=ThreadBinding("stride", 2),
    allocation=ProcessAllocation("cyclic"), data_policy="serial-init")


def _raw(results_dir):
    """Every record of every log, as written."""
    return [json.loads(line) for log in log_files(results_dir)
            for line in log.read_text().splitlines()]


class TestConfigRecords:
    def test_snapshot_text_is_what_the_digest_hashes(self):
        cfg = ExperimentConfig(app="ffvc", n_ranks=3, n_threads=5)
        digest, text = config_snapshot(cfg)
        assert text == config_text(cfg)
        assert json.loads(text) == config_to_dict(cfg)
        assert digest == payload_digest({"config": config_to_dict(cfg)})
        # the memo holds the digest now, not the text
        assert config_snapshot(cfg) == (digest, None)
        assert config_digest(cfg) == digest

    def test_config_line_is_the_log_encoding(self, tmp_path):
        log = runlog.RunLog(tmp_path / "log.jsonl")
        digest, text = config_snapshot(ODD)
        log.add_config(ODD, digest, text)
        log.add_config(ODD, digest)  # held already: no second record
        log.flush()
        (line,) = log.path.read_text().splitlines()
        assert line == jsonlog._ENCODER.encode(runlog.record(
            digest, "config", {"snapshot": config_to_dict(ODD)}))

    def test_manifest_and_summary_name_configs_by_digest(self,
                                                         results_dir):
        run_sweep("digests", F1, {}, engine="analytic")
        digests = [config_digest(c) for c in F1]
        records = _raw(results_dir)
        opening = next(r for r in records if "manifest" in r)
        summary = next(r for r in records if "summary" in r)
        assert opening["configs"] == digests
        # compact rows: [digest, engine, elapsed, gflops, dram, comm]
        assert summary["schema"] == runlog.SUMMARY_SCHEMA
        assert [row[0] for row in summary["rows"]] == digests
        assert "python" not in opening and "argv" not in opening
        # the reader puts the configs and the session fields back
        run = only_run(results_dir)
        manifest = run.checked_manifest()
        assert manifest_mod.manifest_configs(manifest) == F1
        assert [row.config for row in run.rows()] == F1
        assert manifest["model_fingerprint"] and manifest["python"]

    def test_duplicate_metrics_are_rebuilt_from_the_manifest(self,
                                                             results_dir):
        run_sweep("metrics", F1, {}, engine="analytic")
        names = {r["name"] for r in _raw(results_dir) if "metric" in r}
        assert not names & {"run.opened", "run.wall_seconds",
                            "sweep.rows", "sweep.errors"}
        report = RunReport.load(only_run(results_dir).run_id, results_dir)
        assert report.metric("run.opened") == 1
        assert report.metric("sweep.rows") == len(F1)
        assert report.metric("sweep.errors") == 0
        assert report.metric("run.wall_seconds") \
            == report.manifest["wall_seconds"]

    def test_rows_per_s_is_rebuilt_from_the_closing_manifest(self,
                                                            results_dir):
        run_sweep("rate", F1, {}, engine="analytic")
        names = {r["name"] for r in _raw(results_dir) if "metric" in r}
        assert "sweep.rows_per_s" not in names
        report = RunReport.load(only_run(results_dir).run_id, results_dir)
        rate = report.aggregates["sweep.rows_per_s"]
        assert rate.count == 1
        assert rate.last == len(F1) / report.manifest["wall_seconds"]
        assert f"throughput: {rate.last:.1f} rows/s" in report.render()

    def test_changed_session_fields_are_written_again(self, results_dir,
                                                      monkeypatch):
        import sys

        run_sweep("a", F1[:1], {}, engine="analytic")
        run_sweep("b", F1[:1], {}, engine="analytic")
        monkeypatch.setattr(sys, "argv", ["other"])
        run_sweep("c", F1[:1], {}, engine="analytic")
        sessions = [r["argv"] for r in _raw(results_dir) if "session" in r]
        assert len(sessions) == 2 and sessions[1] == ["other"]
        argv = {run.checked_manifest()["name"]:
                run.checked_manifest()["argv"]
                for run in runlog.scan(results_dir / "runs").values()}
        assert argv == {"a": sessions[0], "b": sessions[0], "c": ["other"]}


class TestUnresolved:
    def test_missing_config_records_fail_the_checks(self, results_dir):
        run_sweep("gone", F1[:2], {}, engine="analytic")
        (log,) = log_files(results_dir)
        lines = log.read_text().splitlines(True)
        log.write_text("".join(line for line in lines
                               if not line.startswith('{"config":')))
        assert len(log.read_text().splitlines()) == len(lines) - 2
        run = only_run(results_dir)
        with pytest.raises(ConfigurationError, match="not in the run log"):
            run.checked_manifest()
        with pytest.raises(ConfigurationError, match="not in the run log"):
            run.rows()
        assert list(runlog.manifests(results_dir / "runs")) == []
        assert main(["report", run.run_id,
                     "--results-dir", str(results_dir)]) == 2

    def test_malformed_config_record_is_torn(self, results_dir):
        run_sweep("torn", F1[:1], {}, engine="analytic")
        (log,) = log_files(results_dir)
        jsonlog.append(log, runlog.record("0123456789abcdef", "config",
                                          {"snapshot": 7}))
        assert only_run(results_dir).torn_lines == 1

    def test_inline_summary_rows_still_read(self, results_dir):
        """A summary appended with configs inline (the old row format)
        reads like one that names them by digest."""
        from repro.core.persistence import sweep_to_payload
        from repro.core.runner import SweepResult

        sweep = run_sweep("inline", F1[:3], {}, engine="analytic")
        (log,) = log_files(results_dir)
        run_id = only_run(results_dir).run_id
        jsonlog.append(log, runlog.record(run_id, "summary",
                                          sweep_to_payload(SweepResult(
                                              "inline", sweep.rows[::-1]))))
        assert only_run(results_dir).rows() == sweep.rows[::-1]


def test_malformed_compact_row_fails_the_row_checks(results_dir):
    sweep = run_sweep("compact", F1[:2], {}, engine="analytic")
    (log,) = log_files(results_dir)
    run_id = only_run(results_dir).run_id
    record = runlog.summary_record(run_id, "compact", sweep.rows,
                                   [config_digest(c) for c in F1[:2]])
    assert only_run(results_dir).rows() == sweep.rows
    record["rows"][1] = record["rows"][1][:5]
    jsonlog.append(log, record)
    with pytest.raises(ConfigurationError, match="malformed row record"):
        only_run(results_dir).rows()


def _cli(results, log, *argv):
    """(stdout, exit code) of one CLI call, with the temp paths as the
    fixture's expectations spell them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--results-dir", str(results)])
    return [out.getvalue().replace(str(log), "{log}")
            .replace(str(results.parent), "{tmp}"), code]


def _reads_as_it_did(tmp_path, name):
    """The fixture log ``name`` prints what the build that wrote it
    printed (pinned in ``<name>.expected.json``)."""
    expected = json.loads((DATA / f"{name}.expected.json").read_text())
    results = tmp_path / "results"
    (results / "runs").mkdir(parents=True)
    log = results / "runs" / f"{name}.jsonl"
    shutil.copy(DATA / log.name, log)
    assert _cli(results, log, "runs") == expected["runs"]
    assert _cli(results, log, "runs", "--json") == expected["runs_json"]
    for run_id, (text, code, report_json) in expected["report"].items():
        assert _cli(results, log, "report", run_id, "--json",
                    str(tmp_path / "report.json")) == [text, code]
        assert (tmp_path / "report.json").read_text() == report_json
    for run_id, printed in expected.get("report_text", {}).items():
        assert _cli(results, log, "report", run_id) == printed
    # a replay runs the current model: its verdict on a log recorded
    # under another model fingerprint says nothing about the reader
    if model_fingerprint() == "cf6726edbec3fd97":
        for run_id, printed in expected["reproduce"].items():
            assert _cli(results, log, "reproduce", run_id, "--rtol", "0") \
                == printed
    return expected


def test_v1_log_reads_as_it_did(tmp_path):
    """A log of the format before config and session records (configs
    inline, duplicate metrics) prints what the build that wrote it
    printed, for `repro runs`, `repro report --json` and `repro
    reproduce --rtol 0`."""
    expected = _reads_as_it_did(tmp_path, "runlog-v1")
    assert len(expected["report"]) == 2


def test_v2_log_reads_as_it_did(tmp_path):
    """A log with config and session records, one metric record per
    counter event and summary rows as dicts naming their configs by
    digest (an analytic F1 sweep through a persistent cache, the same
    sweep reversed and served from it, an event config run) prints what
    the build that wrote it printed, `repro report` text included."""
    raw = [json.loads(line) for line in
           (DATA / "runlog-v2.jsonl").read_text().splitlines()]
    assert sum(rec.get("name") == "cache.hit" for rec in raw) == len(F1)
    assert all(isinstance(row, dict) for rec in raw if "summary" in rec
               for row in rec["rows"])
    expected = _reads_as_it_did(tmp_path, "runlog-v2")
    assert len(expected["report"]) == len(expected["report_text"]) == 3
