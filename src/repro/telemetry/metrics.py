"""Lightweight counter/gauge/histogram registry for one run.

Metric names form a **stable vocabulary** (documented in DESIGN.md):
reports, CI gates, and future dashboards key on them, so renaming one is
a breaking change.  The registry updates an in-memory aggregate per
event (so a live ``RunContext`` can summarize itself without re-reading
its own records) and writes ``metric`` records to the run's log
(:mod:`repro.telemetry.runlog`):

* a counter's events fold into one record per name per flush of the
  log, ``v`` their total, ``n`` their number and ``min``/``max``/``last``
  as the aggregate keeps them.  The record is queued at the name's first
  event after a flush and updated in place until the next flush writes
  it, so an event reaches the disk when it would as a record of its own.
  Only integral, non-negative increments fold, while the total stays
  below 2**53: such sums are exact in any grouping.  Any other event of
  the name (a fractional or negative increment, labels, a gauge or
  histogram event) is written as its own record, and so is every later
  event of that name, which keeps the records in event order;
* a gauge or histogram event is one record, ``v`` its value.

:func:`aggregate` rebuilds the aggregates from either kind of record,
equal field for field to the live ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.telemetry.runlog import LOG_FORMAT, RunLog

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

    def merge(self, n: int, total: float, lo: float, hi: float,
              last: float) -> None:
        """Take in ``n`` counter events summing to ``total``, their
        minimum ``lo``, maximum ``hi`` and last value ``last``."""
        self.count += n
        self.total += total
        self.last = last
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)

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


#: A counter folds its increments while its total stays below this:
#: every partial sum of non-negative integers under it is exact.
_EXACT = float(2 ** 53)


class MetricsRegistry:
    """Process-side metric sink for one run.

    ``log=None`` keeps the registry memory-only (tests, dry contexts);
    otherwise its events become ``metric`` records of run ``run_id`` in
    ``log``.
    """

    __slots__ = ("_aggregates", "_log", "_run_id", "_loose")

    def __init__(self, log: RunLog | None = None, run_id: str = "") -> None:
        self._aggregates: dict[str, MetricAggregate] = {}
        self._log = log
        self._run_id = run_id
        #: Names whose events are written one record each from now on.
        self._loose: set[str] = set()

    # ------------------------------------------------------------------
    def _record(self, name: str, kind: str, value: float,
                labels: dict[str, Any] | None) -> None:
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregates[name] = MetricAggregate(name, kind)
        agg.update(value)
        log = self._log
        if log is None:
            return
        self._loose.add(name)
        rec: dict[str, Any] = {"t": time.time(), "name": name, "kind": kind,
                               "v": value, "format": LOG_FORMAT,
                               "metric": self._run_id}
        if labels:
            rec["labels"] = labels
        log.add(rec)

    def _fold(self, log: RunLog, name: str, value: float) -> bool:
        """Fold one counter increment into the name's held record (call
        with ``log.lock`` held); ``False`` when it may not fold."""
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregates[name] = MetricAggregate(name, "counter")
        elif agg.kind != "counter" or agg.total + value >= _EXACT:
            return False
        agg.update(value)
        key = (self, name)
        rec = log.held.get(key)
        if rec is None:
            log.hold(key, {"t": time.time(), "name": name, "kind": "counter",
                           "v": value, "n": 1, "min": value, "max": value,
                           "last": value, "format": LOG_FORMAT,
                           "metric": self._run_id})
            return True
        rec["v"] += value
        rec["n"] += 1
        rec["last"] = value
        if value < rec["min"]:
            rec["min"] = value
        if value > rec["max"]:
            rec["max"] = value
        return True

    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1,
              **labels: Any) -> None:
        """Increment a monotonically accumulating counter by ``n``."""
        value = float(n)
        log = self._log
        if log is not None and not labels and name not in self._loose \
                and value >= 0 and value.is_integer():
            with log.lock:
                folded = self._fold(log, name, value)
            if folded:
                log.due()
                return
        self._record(name, "counter", value, labels or None)

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
    """Rebuild per-name aggregates from metric records, folded counter
    records and per-event records alike.

    Returns ``(aggregates, malformed count)``: a record missing its
    name, kind or numeric value, or a folded record that is not a
    counter's or lacks a positive ``n`` or a numeric ``min``, ``max``
    or ``last``, is skipped and counted.
    """
    aggregates: dict[str, MetricAggregate] = {}
    torn = 0
    for rec in records:
        try:
            name, kind, value = str(rec["name"]), rec["kind"], float(rec["v"])
            folded = "n" in rec
            if folded:
                n, lo, hi, last = (rec["n"], float(rec["min"]),
                                   float(rec["max"]), float(rec["last"]))
        except (ValueError, KeyError, TypeError):
            torn += 1
            continue
        if kind not in KINDS or folded and (
                kind != "counter" or type(n) is not int or n < 1):
            torn += 1
            continue
        agg = aggregates.get(name)
        if agg is None:
            agg = aggregates[name] = MetricAggregate(name, kind)
        if folded:
            agg.merge(n, value, lo, hi, last)
        else:
            agg.update(value)
    return aggregates, torn
