"""Lightweight counter/gauge/histogram registry recording ``metrics.jsonl``.

Metric names form a **stable vocabulary** (documented in DESIGN.md):
reports, CI gates, and future dashboards key on them, so renaming one is
a breaking change.  The registry updates an in-memory aggregate per
event (so a live ``RunContext`` can summarize itself without re-reading
its own file) and queues one record per event for ``metrics.jsonl`` (a
durable JSONL log, see :mod:`repro.jsonlog`).  Queued records are
written in batches — when :data:`repro.jsonlog.FLUSH_RECORDS` are
pending, on the first event :data:`repro.jsonlog.FLUSH_SECONDS` after
the last write, and on :meth:`MetricsRegistry.flush`, which the run
calls when it finalizes.  :func:`read_metrics` rebuilds the aggregates
from the file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import jsonlog

#: On-disk metric record format version.
METRICS_FORMAT = 1

#: Metric kinds (the ``kind`` field of every record).
KINDS = ("counter", "gauge", "histogram")


@dataclass
class MetricAggregate:
    """Running aggregate of one metric name."""

    name: str
    kind: str
    count: int = 0
    total: float = 0.0
    last: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    #: Histogram observations (kept for percentile queries; counters and
    #: gauges leave it empty).
    values: list[float] = field(default_factory=list)

    def update(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.last = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if self.kind == "histogram":
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over recorded observations."""
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name, "kind": self.kind, "count": self.count,
            "total": self.total, "last": self.last,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        if self.kind == "histogram":
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
        return out


class MetricsRegistry:
    """Process-side metric sink for one run.

    ``path=None`` keeps the registry memory-only (tests, dry contexts);
    otherwise every event is queued for the JSONL file and written in
    batches, so an interrupted run keeps everything it measured up to
    its last flush.
    """

    __slots__ = ("path", "_aggregates", "_log")

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._aggregates: dict[str, MetricAggregate] = {}
        self._log = jsonlog.Buffered(self.path) \
            if self.path is not None else None

    # ------------------------------------------------------------------
    def _record(self, name: str, kind: str, value: float,
                labels: dict[str, Any] | None) -> None:
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregates[name] = MetricAggregate(name, kind)
        agg.update(value)
        if self._log is None:
            return
        rec: dict[str, Any] = {"format": METRICS_FORMAT, "t": time.time(),
                               "name": name, "kind": kind, "v": value}
        if labels:
            rec["labels"] = labels
        self._log.add(rec)

    def flush(self) -> None:
        """Write every queued record to the file now."""
        if self._log is not None:
            self._log.flush()

    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1,
              **labels: Any) -> None:
        """Increment a monotonically accumulating counter by ``n``."""
        self._record(name, "counter", float(n), labels or None)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a point-in-time value (readers keep the last one)."""
        self._record(name, "gauge", float(value), labels or None)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation (e.g. a gate wall time)."""
        self._record(name, "histogram", float(value), labels or None)

    # ------------------------------------------------------------------
    def aggregates(self) -> dict[str, MetricAggregate]:
        """Live in-memory aggregates, keyed by metric name."""
        return dict(self._aggregates)

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter total / gauge last / histogram total for ``name``."""
        agg = self._aggregates.get(name)
        if agg is None:
            return default
        return agg.last if agg.kind == "gauge" else agg.total

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<MetricsRegistry {self.path} metrics={len(self._aggregates)}>"


def read_metrics(path: str | Path,
                 ) -> tuple[dict[str, MetricAggregate], int]:
    """Rebuild per-name aggregates from a ``metrics.jsonl`` file.

    Returns ``(aggregates, torn line count)``; a record missing its
    name, kind or numeric value counts as torn too.
    """
    aggregates: dict[str, MetricAggregate] = {}
    records, torn = jsonlog.read(path, METRICS_FORMAT)
    for rec in records:
        try:
            name = str(rec["name"])
            kind = rec["kind"]
            value = float(rec["v"])
        except (ValueError, KeyError, TypeError):
            torn += 1
            continue
        if kind not in KINDS:
            torn += 1
            continue
        agg = aggregates.get(name)
        if agg is None:
            agg = aggregates[name] = MetricAggregate(name, kind)
        agg.update(value)
    return aggregates, torn
