"""Lightweight counter/gauge/histogram registry for one run.

Metric names form a **stable vocabulary** (documented in DESIGN.md):
reports, CI gates, and future dashboards key on them, so renaming one is
a breaking change.  The registry updates an in-memory aggregate per
event (so a live ``RunContext`` can summarize itself without re-reading
its own records) and hands one record per event to the run's sink,
which queues it as a ``metric`` record of the run log
(:mod:`repro.telemetry.runlog`).  :func:`aggregate` rebuilds the
aggregates from the records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

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

    @property
    def value(self) -> float:
        """Counter total / gauge last / histogram total."""
        return self.last if self.kind == "gauge" else self.total

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

    ``sink=None`` keeps the registry memory-only (tests, dry contexts);
    otherwise every event's record is handed to ``sink``.
    """

    __slots__ = ("_aggregates", "_sink")

    def __init__(self,
                 sink: Callable[[dict[str, Any]], None] | None = None,
                 ) -> None:
        self._aggregates: dict[str, MetricAggregate] = {}
        self._sink = sink

    # ------------------------------------------------------------------
    def _record(self, name: str, kind: str, value: float,
                labels: dict[str, Any] | None) -> None:
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregates[name] = MetricAggregate(name, kind)
        agg.update(value)
        if self._sink is None:
            return
        rec: dict[str, Any] = {"t": time.time(), "name": name,
                               "kind": kind, "v": value}
        if labels:
            rec["labels"] = labels
        self._sink(rec)

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
        """:attr:`MetricAggregate.value` of ``name``."""
        agg = self._aggregates.get(name)
        return default if agg is None else agg.value

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<MetricsRegistry metrics={len(self._aggregates)}>"


def aggregate(records: Iterable[dict[str, Any]],
              ) -> tuple[dict[str, MetricAggregate], int]:
    """Rebuild per-name aggregates from metric records.

    Returns ``(aggregates, malformed count)``: a record missing its
    name, kind or numeric value is skipped and counted.
    """
    registry = MetricsRegistry()
    torn = 0
    for rec in records:
        try:
            name, kind, value = str(rec["name"]), rec["kind"], float(rec["v"])
        except (ValueError, KeyError, TypeError):
            kind = None
        if kind in KINDS:
            registry._record(name, kind, value, None)
        else:
            torn += 1
    return registry._aggregates, torn
