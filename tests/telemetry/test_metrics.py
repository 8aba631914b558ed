"""Tests for the metrics registry and its records in the run log."""

import json

from repro.telemetry import runlog
from repro.telemetry.metrics import MetricsRegistry, aggregate


def _logged_registry(root):
    """A registry whose records go to this process's log under root as
    records of run ``run-1``; returns (registry, log)."""
    log = runlog.process_log(root)
    return MetricsRegistry(
        lambda rec: log.add(runlog.record("run-1", "metric", rec))), log


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

    def test_read_metrics_missing_file(self, tmp_path):
        assert runlog.scan(tmp_path / "absent") == {}
        assert aggregate([]) == ({}, 0)
