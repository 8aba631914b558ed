"""``repro runs`` / ``repro report`` — reading recorded runs.

Both read the run logs under the runs root through
:func:`repro.telemetry.runlog.scan`.  The report is assembled from a
run's records: the manifest (provenance + status), the metric
aggregates (cache efficiency, gate wall time, engine picks, pool
resilience, fault events, torn store lines), the spans, and the summary
rows (sorted here into the slowest-configs table).  Everything renders
as text for humans and as one JSON object for tooling; the
``artifacts:`` line names the log files that hold the run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.telemetry import runlog, state
from repro.telemetry.metrics import MetricAggregate, aggregate
from repro.telemetry.spans import spans_to_chrome_trace


@dataclass(frozen=True)
class RunEntry:
    """One line of ``repro runs``."""

    run_id: str
    kind: str
    name: str
    status: str
    engine: str
    created: str
    n_rows: int | None
    n_errors: int | None
    wall_seconds: float | None
    resumed_from: str | None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def list_runs(results_dir: str | Path | None = None, *,
              kind: str | None = None, status: str | None = None,
              name: str | None = None) -> list[RunEntry]:
    """Recorded runs, oldest first; filters match exactly (``name``
    matches as a substring).  Runs without a valid manifest are
    skipped."""
    entries: list[RunEntry] = []
    for mf in runlog.manifests(state.runs_root(results_dir)):
        item = RunEntry(
            run_id=str(mf["run_id"]),
            kind=str(mf["kind"]),
            name=str(mf["name"]),
            status=str(mf.get("status") or "unknown"),
            engine=str(mf.get("engine") or "event"),
            created=str(mf.get("created") or ""),
            n_rows=mf.get("n_rows"),
            n_errors=mf.get("n_errors"),
            wall_seconds=mf.get("wall_seconds"),
            resumed_from=mf.get("resumed_from"),
        )
        if kind is not None and item.kind != kind:
            continue
        if status is not None and item.status != status:
            continue
        if name is not None and name not in item.name:
            continue
        entries.append(item)
    entries.sort(key=lambda e: (e.created, e.run_id))
    return entries


def render_runs(entries: list[RunEntry]) -> str:
    """The ``repro runs`` table."""
    if not entries:
        return "no recorded runs"
    header = (f"{'run id':<24} {'kind':<10} {'name':<20} {'status':<10} "
              f"{'engine':<9} {'rows':>5} {'errs':>5}  created")
    lines = [header, "-" * len(header)]
    for e in entries:
        rows = "-" if e.n_rows is None else str(e.n_rows)
        errs = "-" if e.n_errors is None else str(e.n_errors)
        resumed = "  (resumed)" if e.resumed_from else ""
        lines.append(
            f"{e.run_id:<24} {e.kind:<10} {e.name:<20} {e.status:<10} "
            f"{e.engine:<9} {rows:>5} {errs:>5}  {e.created}{resumed}")
    return "\n".join(lines)


@dataclass
class RunReport:
    """Everything ``repro report`` shows for one run."""

    manifest: dict[str, Any]
    aggregates: dict[str, MetricAggregate]
    rows: list[Any]
    spans: list[dict[str, Any]]
    #: The run log files that hold the run's records.
    files: list[Path]
    #: Torn lines of those files, plus this run's malformed records.
    torn_lines: int = 0

    # -- metric lookups ------------------------------------------------
    def metric(self, metric_name: str, default: float = 0.0) -> float:
        agg = self.aggregates.get(metric_name)
        return default if agg is None else agg.value

    def cache_hit_rate(self) -> float | None:
        hits = self.metric("cache.hit")
        misses = self.metric("cache.miss")
        if hits + misses <= 0:
            return None
        return hits / (hits + misses)

    def slowest(self, top: int = 5) -> list[Any]:
        return sorted(self.rows, key=lambda r: -r.elapsed)[:top]

    def fault_events(self) -> dict[str, float]:
        return {metric_name.removeprefix("faults."): agg.total
                for metric_name, agg in sorted(self.aggregates.items())
                if metric_name.startswith("faults.") and agg.total}

    # -- assembly ------------------------------------------------------
    @classmethod
    def load(cls, run_id: str,
             results_dir: str | Path | None = None) -> "RunReport":
        run = runlog.find(state.runs_root(results_dir), run_id)
        manifest = run.checked_manifest()
        aggregates, bad_metrics = aggregate(run.metrics)
        spans = [rec for rec in run.spans
                 if all(key in rec for key in ("name", "start_s", "dur_s"))]
        return cls(manifest=manifest, aggregates=aggregates, rows=run.rows(),
                   spans=spans, files=run.files,
                   torn_lines=run.torn_lines + bad_metrics
                   + len(run.spans) - len(spans))

    # -- output --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        from repro.core.persistence import row_to_dict

        return {
            "manifest": self.manifest,
            "metrics": {metric_name: agg.to_dict()
                        for metric_name, agg
                        in sorted(self.aggregates.items())},
            "cache_hit_rate": self.cache_hit_rate(),
            "slowest": [row_to_dict(r) for r in self.slowest()],
            "fault_events": self.fault_events(),
            "n_spans": len(self.spans),
            "torn_lines": self.torn_lines,
        }

    def chrome_trace(self) -> dict[str, Any]:
        return spans_to_chrome_trace(self.spans,
                                     str(self.manifest["run_id"]))

    def render(self) -> str:
        mf = self.manifest
        lines = [
            f"run {mf['run_id']}  [{mf['kind']} {mf['name']!r}, "
            f"engine={mf['engine']}, status={mf['status']}]",
            f"  created {mf.get('created')}   wall "
            f"{_fmt_opt_s(mf.get('wall_seconds'))}   "
            f"rows {mf.get('n_rows')}   errors {mf.get('n_errors')}",
            f"  model fingerprint {mf.get('model_fingerprint')}   "
            f"repro {mf.get('repro_version')}   "
            f"python {mf.get('python')}",
        ]
        if mf.get("resumed_from"):
            lines.append(f"  resumed from {mf['resumed_from']}")
        if mf.get("reproduces"):
            lines.append(f"  reproduces {mf['reproduces']}")
        if mf.get("error"):
            lines.append(f"  error: {mf['error']}")

        rate = self.cache_hit_rate()
        hits, misses = self.metric("cache.hit"), self.metric("cache.miss")
        torn = self.metric("cache.torn_lines")
        cache_line = (f"  cache: {hits:.0f} hit(s) / {misses:.0f} miss(es)"
                      + (f" ({rate:.1%} hit rate)" if rate is not None
                         else ""))
        if torn:
            cache_line += f"; {torn:.0f} torn line(s) skipped on load"
        lines.append(cache_line)
        # journal and lint: stores whose counts only older logs carry
        torn_bits = [f"{store} {self.metric(f'{store}.torn_lines'):.0f}"
                     for store in ("journal", "lint", "ledger")
                     if self.metric(f"{store}.torn_lines")]
        if self.torn_lines:
            torn_bits.append(f"telemetry {self.torn_lines}")
        if torn_bits:
            lines.append("  torn lines skipped: " + ", ".join(torn_bits))

        for gate in ("lint", "advise"):
            agg = self.aggregates.get(f"gate.{gate}.seconds")
            if agg is None or not agg.count:
                continue
            blocked = self.metric(f"gate.{gate}.blocked")
            lines.append(
                f"  gate {gate}: {agg.count} check(s), "
                f"{agg.total * 1e3:.2f} ms total "
                f"(max {agg.max * 1e3:.2f} ms)"
                + (f", {blocked:.0f} blocked" if blocked else ""))

        picks = {metric_name.removeprefix("engine.pick."): agg.total
                 for metric_name, agg in sorted(self.aggregates.items())
                 if metric_name.startswith("engine.pick.")}
        if picks:
            lines.append("  engine picks: " + ", ".join(
                f"{eng} x{total:.0f}" for eng, total in picks.items()))

        pool_bits = []
        for short, metric_name in (("restarts", "pool.restarts"),
                                   ("retries", "pool.retries"),
                                   ("serial fallbacks",
                                    "pool.serial_fallback"),
                                   ("quarantined", "sweep.quarantined")):
            total = self.metric(metric_name)
            if total:
                pool_bits.append(f"{short} {total:.0f}")
        if pool_bits:
            lines.append("  resilience: " + ", ".join(pool_bits))

        faults = self.fault_events()
        if faults:
            lines.append("  fault events: " + ", ".join(
                f"{event}={total:g}" for event, total in faults.items()))

        rps = self.aggregates.get("sweep.rows_per_s")
        if rps is not None and rps.count:
            lines.append(f"  throughput: {rps.last:.1f} rows/s")

        if mf.get("errors"):
            lines.append("  failed/quarantined configs:")
            for err in mf["errors"]:
                lines.append(f"    {err['config']}: {err['error']}: "
                             f"{err['message']}")

        slowest = self.slowest()
        if slowest:
            lines.append("  slowest configs:")
            for row in slowest:
                lines.append(f"    {row.label:<40} "
                             f"{row.elapsed * 1e3:10.3f} ms  "
                             f"[{row.engine}]")
        lines.append("  artifacts: "
                     + ", ".join(str(path) for path in self.files))
        return "\n".join(lines)


def _fmt_opt_s(value: Any) -> str:
    return f"{value:.3f} s" if isinstance(value, (int, float)) else "-"
