"""The RunContext: one recorded run = one self-describing directory.

``results/runs/<run_id>/`` holds:

* ``manifest.json`` — the job spec + provenance (:mod:`.manifest`);
* ``metrics.jsonl`` — counters/gauges/histograms (:mod:`.metrics`);
* ``spans.jsonl`` — parent-linked orchestration spans (:mod:`.spans`);
* ``summary.json`` — the result rows, in the same schema
  :func:`repro.core.persistence.save_sweep` has always used, so
  ``repro reproduce`` can diff a replay against it with stock loaders.

A run pays for its files once, not once per event: the directory and
the ``running`` manifest are written at open; metrics and spans are
queued in memory and written in batches
(:class:`repro.jsonlog.Buffered`), the last batch at
:meth:`RunContext.finalize`, before the summary and the final manifest.
A hard kill therefore loses at most the unflushed tail of the two logs,
never the manifest.

:func:`run_scope` is the integration point the runner uses: it opens a
context when telemetry is enabled and no run is active, degrades to a
plain span when a run already is (nested sweeps inside ``repro report``
builders), and finalizes status/summary on the way out — including the
failure path, so a crashed sweep leaves a ``status="failed"`` manifest
with the exception named rather than a silent ``running`` husk.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.telemetry import manifest as manifest_mod
from repro.telemetry import state
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.experiment import ExperimentConfig
    from repro.core.runner import SweepResult
    from repro.faults.plan import FaultPlan


def new_run_id() -> str:
    """Sortable, collision-resistant run id (timestamp + random tail)."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def find_resumable(root: Path, key: str) -> str | None:
    """Latest recorded run under ``root`` with the given sweep key.

    This is how a resumed sweep finds the directory it should re-enter
    instead of minting a fresh run id.  Unreadable manifests are skipped
    — resume should never be blocked by one corrupt neighbor.
    """
    best: tuple[str, str] | None = None
    if not root.is_dir():
        return None
    for entry in root.iterdir():
        if not entry.is_dir():
            continue
        try:
            mf = manifest_mod.read_manifest(entry)
        except Exception:  # noqa: BLE001 - skip foreign/corrupt dirs
            continue
        if mf.get("sweep_key") != key:
            continue
        created = str(mf.get("created") or "")
        if best is None or (created, entry.name) > best:
            best = (created, entry.name)
    return best[1] if best is not None else None


class RunContext:
    """Live recording state for one run directory."""

    __slots__ = ("run_id", "directory", "manifest", "metrics", "spans",
                 "_t0", "_sweep", "_summary_name", "_rows", "_errors")

    def __init__(self, directory: str | Path,
                 manifest: dict[str, Any]) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.run_id: str = manifest["run_id"]
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_mod.write_manifest(self.directory, manifest)
        self.metrics = MetricsRegistry(
            self.directory / manifest_mod.METRICS_FILENAME)
        self.spans = SpanRecorder(
            self.directory / manifest_mod.SPANS_FILENAME)
        self._t0 = time.perf_counter()
        self._sweep: "SweepResult | None" = None
        self._summary_name: str = manifest["name"]
        self._rows: list[Any] = []
        self._errors: list[Any] = []

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, *, kind: str, name: str,
             configs: list["ExperimentConfig"], engine: str,
             workers: int = 1, resume: bool = False,
             cache_dir: str | None = None, advise: str | None = None,
             fault_plan: "FaultPlan | None" = None,
             reproduces: str | None = None,
             results_dir: str | Path | None = None) -> "RunContext":
        """Create (or, with ``resume=True``, re-enter) a run directory."""
        root = state.runs_root(results_dir)
        manifest = manifest_mod.build_manifest(
            run_id=new_run_id(), kind=kind, name=name, configs=configs,
            engine=engine, workers=workers, cache_dir=cache_dir,
            advise=advise, fault_plan=fault_plan, reproduces=reproduces)
        if resume:
            prior = find_resumable(root, manifest["sweep_key"])
            if prior is not None:
                # same directory, same run_id; metrics/spans append, the
                # manifest records the lineage explicitly
                old = manifest_mod.read_manifest(root / prior)
                manifest["run_id"] = old["run_id"]
                manifest["created"] = old["created"]
                manifest["resumed_from"] = old["run_id"]
                manifest["status"] = "running"
        directory = root / manifest["run_id"]
        ctx = cls(directory, manifest)
        ctx.metrics.count("run.opened")
        if manifest["resumed_from"]:
            ctx.metrics.count("run.resumed")
        return ctx

    # ------------------------------------------------------------------
    def attach_sweep(self, sweep: "SweepResult") -> None:
        """Hand the finished sweep over for the summary snapshot."""
        self._sweep = sweep
        self._summary_name = sweep.name
        self._rows = list(sweep.rows)
        self._errors = list(sweep.errors)

    def attach_rows(self, name: str, rows: list[Any],
                    errors: list[Any] | None = None) -> None:
        """Single-config variant of :meth:`attach_sweep`."""
        self._summary_name = name
        self._rows = list(rows)
        self._errors = list(errors or [])

    # ------------------------------------------------------------------
    def _write_summary(self) -> None:
        from repro.core.persistence import save_sweep
        from repro.core.runner import SweepResult

        save_sweep(SweepResult(self._summary_name, self._rows),
                   self.directory / manifest_mod.SUMMARY_FILENAME)

    def flush(self) -> None:
        """Write the queued metric and span records now."""
        self.metrics.flush()
        self.spans.flush()

    def finalize(self, status: str = "completed",
                 error: BaseException | None = None) -> None:
        """Seal the run: closing metrics, every queued record, summary
        rows, final manifest."""
        wall = time.perf_counter() - self._t0
        self.metrics.gauge("run.wall_seconds", wall)
        self.metrics.gauge("sweep.rows", len(self._rows))
        self.metrics.gauge("sweep.errors", len(self._errors))
        if wall > 0:
            self.metrics.gauge("sweep.rows_per_s", len(self._rows) / wall)
        self.flush()
        self._write_summary()
        self.manifest["status"] = status
        if error is not None:
            self.manifest["error"] = \
                f"{type(error).__name__}: {error}"
        self.manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        self.manifest["wall_seconds"] = round(wall, 6)
        self.manifest["n_rows"] = len(self._rows)
        self.manifest["n_errors"] = len(self._errors)
        self.manifest["errors"] = [
            {"config": err.config.label(), "error": err.error,
             "message": err.message}
            for err in self._errors
        ]
        manifest_mod.write_manifest(self.directory, self.manifest)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<RunContext {self.run_id} at {self.directory}>"


@contextmanager
def run_scope(*, kind: str, name: str,
              configs: list["ExperimentConfig"], engine: str,
              workers: int = 1, resume: bool = False,
              cache: Any = None, advise: str | None = None,
              fault_plan: "FaultPlan | None" = None,
              reproduces: str | None = None) -> Iterator[RunContext | None]:
    """Open a run around a sweep/config execution.

    Yields the new :class:`RunContext` (now the process's active run),
    or ``None`` when telemetry is disabled **or** a run is already
    active — in the nested case the block is still wrapped in a span of
    the enclosing run, so a multi-sweep report shows each sweep as a
    phase rather than scattering sibling run directories.
    """
    if not state.enabled():
        yield None
        return
    enclosing = state.current_run()
    if enclosing is not None:
        with enclosing.spans.span(kind, label=name, engine=engine,
                                  configs=len(configs)):
            yield None
        return
    directory = getattr(cache, "directory", None)
    ctx = RunContext.open(
        kind=kind, name=name, configs=configs, engine=engine,
        workers=workers, resume=resume,
        cache_dir=str(directory) if directory is not None else None,
        advise=advise, fault_plan=fault_plan, reproduces=reproduces)
    state.activate(ctx)
    try:
        with ctx.spans.span(kind, label=name, engine=engine,
                            configs=len(configs)):
            yield ctx
    except BaseException as exc:
        ctx.finalize(status="failed", error=exc)
        raise
    else:
        ctx.finalize(status="completed")
    finally:
        state.deactivate(ctx)
