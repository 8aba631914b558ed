"""The quick report: ``write_report(quick=True)``, built once per module.

Its sections are compared with the artifacts built by
``tests/test_artifacts.py`` (one shared build per test run).
"""

import pytest

from repro.artifacts import ARTIFACTS, report_text, write_report
from tests.test_artifacts import built

QUICK = [a for a in ARTIFACTS if a.quick]


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """``(path, ids passed to progress)`` of one quick report."""
    seen = []
    path = write_report(tmp_path_factory.mktemp("report") / "quick.md",
                        quick=True, progress=seen.append)
    return path, seen


class TestReport:
    def test_quick_report_contains_fast_artifacts(self, quick_report):
        text = quick_report[0].read_text()
        assert text == report_text(
            [a.section(built(a.id)[0]) for a in QUICK])
        assert "## F1 " not in text

    def test_progress_callback_invoked(self, quick_report):
        assert quick_report[1] == [a.id for a in QUICK]

    def test_write_report_roundtrip(self, quick_report):
        assert quick_report[0].read_text().startswith("# Reproduction report")
