"""Tests for the metrics registry and its records in the run log."""

import json
import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import runlog
from repro.telemetry.metrics import MetricsRegistry, aggregate


def _logged_registry(root):
    """A registry whose records go to this process's log under root as
    records of run ``run-1``; returns (registry, log)."""
    log = runlog.process_log(root)
    return MetricsRegistry(log, "run-1"), log


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.count("cache.hit")
        reg.count("cache.hit", 3)
        agg = reg.aggregates()["cache.hit"]
        assert agg.kind == "counter"
        assert agg.total == 4
        assert agg.count == 2
        assert reg.value("cache.hit") == 4

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        reg.gauge("sweep.rows", 3)
        reg.gauge("sweep.rows", 9)
        agg = reg.aggregates()["sweep.rows"]
        assert agg.kind == "gauge"
        assert agg.last == 9
        assert reg.value("sweep.rows") == 9

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("gate.lint.seconds", float(v))
        agg = reg.aggregates()["gate.lint.seconds"]
        assert agg.kind == "histogram"
        assert agg.min == 1 and agg.max == 100
        assert agg.percentile(50) == 50
        assert agg.percentile(95) == 95
        d = agg.to_dict()
        assert d["p50"] == 50 and d["p95"] == 95

    def test_unknown_name_default(self):
        reg = MetricsRegistry()
        assert reg.value("nope") == 0.0


class TestStream:
    def test_lines_are_json_records(self, tmp_path):
        reg, log = _logged_registry(tmp_path)
        reg.count("cache.hit")
        reg.observe("gate.lint.seconds", 0.25, config="x")
        log.flush()
        recs = [json.loads(line)
                for line in log.path.read_text().splitlines()]
        assert [r["name"] for r in recs] == ["cache.hit",
                                             "gate.lint.seconds"]
        assert recs[1]["labels"] == {"config": "x"}
        assert all(r["format"] == 1 and r["metric"] == "run-1"
                   for r in recs)

    def test_read_metrics_rebuilds_aggregates(self, tmp_path):
        reg, log = _logged_registry(tmp_path)
        reg.count("cache.hit", 2)
        reg.count("cache.hit")
        reg.gauge("run.wall_seconds", 1.5)
        log.flush()
        aggs, torn = aggregate(runlog.scan(tmp_path)["run-1"].metrics)
        assert torn == 0
        assert aggs["cache.hit"].total == 3
        assert aggs["run.wall_seconds"].last == 1.5

    def test_malformed_folded_records_are_torn(self):
        folded = {"name": "c", "kind": "counter", "v": 3.0, "n": 2,
                  "min": 1.0, "max": 2.0, "last": 2.0}
        bad = [{**folded, "kind": "gauge"}, {**folded, "n": 0},
               {**folded, "n": 1.5}, {**folded, "min": "x"},
               {key: v for key, v in folded.items() if key != "last"}]
        aggs, torn = aggregate([folded, *bad])
        assert torn == len(bad)
        assert aggs["c"].to_dict() == {
            "name": "c", "kind": "counter", "count": 2, "total": 3.0,
            "last": 2.0, "min": 1.0, "max": 2.0, "mean": 1.5}

    def test_read_metrics_missing_file(self, tmp_path):
        assert runlog.scan(tmp_path / "absent") == {}
        assert aggregate([]) == ({}, 0)


#: Increments that fold and ones that must not: fractional, negative,
#: and totals at or past 2**53, where integer sums stop being exact.
_VALUES = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([0.5, -1.0, 1e-3, -0.0, 2.0 ** 52, 2.0 ** 53, 1e20]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))

_EVENTS = st.lists(st.tuples(
    st.sampled_from(["count", "count", "count", "labeled", "gauge",
                     "observe", "flush"]),
    st.sampled_from(["a", "b"]), _VALUES), min_size=8, max_size=60)


@settings(max_examples=150, deadline=None)
@given(events=_EVENTS)
# past 2**53, 1 + 1 added to the total one at a time rounds away, and
# as one folded 2 it does not: such a counter must stop folding
@example(events=[("count", "a", 2.0 ** 53), ("flush", "a", 0.0),
                 ("count", "a", 1.0), ("count", "a", 1.0)])
def test_folded_records_rebuild_the_live_aggregates(events):
    """Whatever the events and the flush points, the written records
    rebuild every aggregate field exactly, and an integral counter
    writes at most one record per name per flush."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        log = runlog.RunLog(root / "log.jsonl")
        reg = MetricsRegistry(log, "r")
        for kind, name, value in events:
            if kind == "flush":
                log.flush()
            elif kind == "labeled":
                reg.count(name, value, config="x")
            else:
                getattr(reg, kind)(name, value)
        log.flush()
        run = runlog.scan(root).get("r")
        aggs, torn = aggregate(run.metrics if run else [])
    assert torn == 0
    assert {name: agg.to_dict() for name, agg in aggs.items()} \
        == {name: agg.to_dict() for name, agg in reg.aggregates().items()}
    if all(kind in ("count", "flush") and value in range(5)
           for kind, _, value in events):
        window, written = 0, set()
        for kind, name, _ in events:
            if kind == "flush":
                window += 1
            else:
                written.add((window, name))
        assert len(run.metrics if run else []) == len(written)


def test_counting_threads_and_flushes_lose_no_event(tmp_path):
    """Threads counting into one held record while another flushes: a
    lost update or a record written twice changes the rebuilt total."""
    log = runlog.RunLog(tmp_path / "log.jsonl")
    reg = MetricsRegistry(log, "r")
    per_thread, stop = 3000, threading.Event()

    def counter():
        for _ in range(per_thread):
            reg.count("c")

    def flusher():
        while not stop.is_set():
            log.flush()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counters = [threading.Thread(target=counter) for _ in range(4)]
        flushing = threading.Thread(target=flusher)
        for thread in [flushing, *counters]:
            thread.start()
        for thread in counters:
            thread.join(timeout=60)
        stop.set()
        flushing.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [flushing, *counters])
    log.flush()
    aggs, torn = aggregate(runlog.scan(tmp_path)["r"].metrics)
    assert torn == 0
    assert (aggs["c"].count, aggs["c"].total) == (4 * per_thread,
                                                  4 * per_thread)
    assert aggs["c"].to_dict() == reg.aggregates()["c"].to_dict()
