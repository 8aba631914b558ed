"""Tests for `repro reproduce`: manifest replay and drift detection."""

import json

import pytest

from repro.cli import main
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_sweep
from repro.errors import ConfigurationError
from repro.jsonlog import append
from repro.telemetry import runlog
from repro.telemetry.report import list_runs
from repro.telemetry.reproduce import reproduce_run

from .conftest import log_files

CFGS = [ExperimentConfig(app="ccs-qcd", n_ranks=r, n_threads=48 // r)
        for r in (4, 8)]


@pytest.fixture
def recorded(results_dir):
    run_sweep("repro-me", CFGS, {}, engine="analytic")
    return list_runs(results_dir)[-1]


def _mutate_summary(results_dir, run_id, field="elapsed", factor=1.5):
    """Corrupt one recorded row by appending a later summary record (the
    last one wins), returning the drifted config's label."""
    run = runlog.find(results_dir / "runs", run_id)
    payload = run.summary
    payload["rows"][0][field] *= factor
    append(run.files[-1], runlog.record(run_id, "summary", payload))
    from repro.core.persistence import config_from_dict

    return config_from_dict(payload["rows"][0]["config"]).label()


class TestReproduce:
    def test_intact_run_reproduces_bit_for_bit(self, results_dir,
                                               recorded):
        report = reproduce_run(recorded.run_id, results_dir, rtol=0.0)
        assert report.ok
        assert report.checked == len(CFGS)
        assert report.fingerprint_match
        assert "REPRODUCED" in report.render()

    def test_mutated_summary_names_the_drifted_row(self, results_dir,
                                                   recorded):
        label = _mutate_summary(results_dir, recorded.run_id)
        report = reproduce_run(recorded.run_id, results_dir, rtol=0.0)
        assert not report.ok
        (drift,) = report.drifts
        assert drift.config == label
        assert drift.field == "elapsed"
        assert drift.recorded == pytest.approx(drift.replayed * 1.5)
        text = report.render()
        assert "DRIFT" in text and label in text and "elapsed" in text

    def test_tolerance_absorbs_small_drift(self, results_dir, recorded):
        _mutate_summary(results_dir, recorded.run_id, factor=1.0 + 1e-12)
        assert reproduce_run(recorded.run_id, results_dir,
                             rtol=1e-9).ok
        assert not reproduce_run(recorded.run_id, results_dir,
                                 rtol=1e-15).ok

    def test_replay_does_not_record_itself(self, results_dir, recorded):
        reproduce_run(recorded.run_id, results_dir, rtol=0.0)
        assert len(runlog.scan(results_dir / "runs")) == 1
        assert len(log_files(results_dir)) == 1

    def test_run_without_summary_is_an_error(self, results_dir,
                                             recorded):
        (log,) = log_files(results_dir)
        lines = [line for line in log.read_text().splitlines(True)
                 if '"summary":' not in line]
        log.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match="no summary"):
            reproduce_run(recorded.run_id, results_dir)

    def test_fingerprint_mismatch_is_flagged(self, results_dir,
                                             recorded):
        (log,) = log_files(results_dir)
        append(log, runlog.record(recorded.run_id, "manifest",
                                  {"model_fingerprint": "0123456789abcdef"}))
        report = reproduce_run(recorded.run_id, results_dir, rtol=0.0)
        assert not report.fingerprint_match
        assert "fingerprint changed" in report.render()


class TestCli:
    def test_exit_zero_then_nonzero_after_mutation(self, results_dir,
                                                   recorded, capsys,
                                                   tmp_path):
        argv = ["reproduce", recorded.run_id,
                "--results-dir", str(results_dir), "--rtol", "0"]
        assert main(argv) == 0
        assert "REPRODUCED" in capsys.readouterr().out

        label = _mutate_summary(results_dir, recorded.run_id)
        out_json = tmp_path / "drift.json"
        assert main(argv + ["--json", str(out_json)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and label in out
        payload = json.loads(out_json.read_text())
        assert payload["ok"] is False
        assert payload["drifts"][0]["config"] == label

    def test_unknown_run_exits_two(self, results_dir, recorded, capsys):
        assert main(["reproduce", "zzz-nope",
                     "--results-dir", str(results_dir)]) == 2
        assert "no recorded run" in capsys.readouterr().err


class TestFaultPlanRoundTrip:
    def test_plan_digest_and_from_dict(self):
        from repro.faults.plan import (
            CrashRank,
            FaultPlan,
            MessageFault,
            Straggler,
        )

        plan = FaultPlan(
            seed=7,
            crashes=(CrashRank(rank=1, at=0.5),),
            stragglers=(Straggler(rank=2, factor=1.5, start=0.1),),
            message_faults=(MessageFault(kind="delay", src=0, dst=3,
                                         probability=0.5, delay_s=1e-3,
                                         max_events=4),),
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.digest() == plan.digest()
        assert FaultPlan().digest() != plan.digest()

    def test_malformed_record_raises(self):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ConfigurationError, match="malformed"):
            FaultPlan.from_dict({"crashes": [{"rank": 0}]})  # no "at"
