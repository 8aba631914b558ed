"""Fixtures for telemetry tests: opt back into recording.

The suite-wide conftest forces ``REPRO_TELEMETRY=off``; these tests
re-enable it against a per-test results root so nothing leaks into the
working directory (or between tests).
"""

import pytest

from repro.telemetry import runlog


@pytest.fixture
def results_dir(monkeypatch, tmp_path):
    """Telemetry on, recording under a throwaway results root."""
    root = tmp_path / "results"
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(root))
    return root


def only_run(results_dir):
    """The records of the one run recorded under ``results_dir``."""
    (run,) = runlog.scan(results_dir / "runs").values()
    return run


def log_files(results_dir):
    """The run logs under ``results_dir``, in name order."""
    return sorted((results_dir / "runs").glob("*.jsonl"))
