"""Tests for the span recorder and Chrome trace export."""

import json

from repro.telemetry import runlog
from repro.telemetry.spans import SpanRecorder, spans_to_chrome_trace


class TestRecorder:
    def test_nesting_links_parents(self):
        records = []
        rec = SpanRecorder(records.append)
        with rec.span("sweep", label="f1") as outer:
            with rec.span("dispatch") as inner:
                assert inner.parent_id == outer.span_id
        spans = records
        # children close (and are written) before their parents
        assert [s["name"] for s in spans] == ["dispatch", "sweep"]
        assert spans[0]["parent"] == spans[1]["id"]
        assert spans[1]["parent"] is None

    def test_durations_are_nonnegative_and_nested(self):
        records = []
        rec = SpanRecorder(records.append)
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner, outer = records
        assert inner["dur_s"] >= 0
        assert outer["dur_s"] >= inner["dur_s"]
        assert outer["start_s"] <= inner["start_s"]

    def test_exception_marks_span(self):
        records = []
        rec = SpanRecorder(records.append)
        try:
            with rec.span("gate.lint"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = records
        assert span["attrs"]["error"] == "ValueError"

    def test_attrs_are_json_safe(self):
        records = []
        rec = SpanRecorder(records.append)
        with rec.span("x", count=3, obj=object()):
            pass
        (span,) = records
        assert span["attrs"]["count"] == 3
        assert isinstance(span["attrs"]["obj"], str)

    def test_memory_only_recorder_writes_nothing(self, tmp_path):
        rec = SpanRecorder(None)
        with rec.span("x"):
            pass
        assert list(tmp_path.iterdir()) == []


class TestReaders:
    def test_read_spans_missing_file(self, tmp_path):
        assert runlog.scan(tmp_path / "absent") == {}

    def test_chrome_trace_shape(self):
        records = []
        rec = SpanRecorder(records.append)
        with rec.span("sweep"):
            with rec.span("dispatch"):
                pass
        trace = spans_to_chrome_trace(records, "run-1")
        # serializable, complete slices, on one named orchestrator track
        json.dumps(trace)
        meta, *slices = trace["traceEvents"]
        assert meta["args"]["name"] == "orchestrator"
        assert {e["ph"] for e in slices} == {"X"}
        assert {e["name"] for e in slices} == {"sweep", "dispatch"}
        dispatch = next(e for e in slices if e["name"] == "dispatch")
        assert "parent" in dispatch["args"]
        assert trace["otherData"]["run"] == "run-1"
