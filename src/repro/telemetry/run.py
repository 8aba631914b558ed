"""The RunContext: one recorded run = records in its process's run log.

A run appends a ``manifest`` (:mod:`.manifest`), ``metric`` records
(:mod:`.metrics`: its counters fold per flush), closed ``span`` records
(:mod:`.spans`) and a ``summary`` of its rows to the log
:mod:`repro.telemetry.runlog` owns, with the ``config`` and ``session``
records that log does not hold yet.  It pays two appends, not one per
event: the opening manifest, with the config and session records it
names, is flushed at :meth:`RunContext.open`; everything else waits in
the process's buffered log (:class:`repro.jsonlog.Buffered`) and goes
out in batches, the last with the summary and the closing manifest at
:meth:`RunContext.finalize`.  The summary names each row's config by
the digest :meth:`RunContext.open` computed.  A hard kill loses at most
the unflushed tail, never the opening manifest or the configs it names.

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
from repro.telemetry import runlog, state
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.experiment import ExperimentConfig
    from repro.core.runner import SweepResult
    from repro.faults.plan import FaultPlan


def new_run_id() -> str:
    """Sortable, collision-resistant run id (timestamp + random tail)."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def find_resumable(root: Path, key: str) -> dict[str, Any] | None:
    """Manifest of the latest run under ``root`` with this sweep key:
    the run a resumed sweep re-enters instead of minting a fresh run id.
    Runs whose manifest fails its checks are skipped — resume should
    never be blocked by one corrupt neighbor."""
    found = {(str(mf.get("created") or ""), str(mf["run_id"])): mf
             for mf in runlog.manifests(root) if mf.get("sweep_key") == key}
    return found[max(found)] if found else None


class RunContext:
    """Live recording state for one run."""

    __slots__ = ("run_id", "manifest", "metrics", "spans", "log",
                 "_opened", "_configs", "_digests", "_t0", "_summary_name",
                 "_rows", "_errors")

    def __init__(self, log: runlog.RunLog, manifest: dict[str, Any],
                 configs: list["ExperimentConfig"],
                 digests: list[str]) -> None:
        self.manifest = manifest
        self.run_id: str = manifest["run_id"]
        self.log = log
        #: The opening manifest record, as queued.
        self._opened = runlog.record(self.run_id, "manifest", manifest)
        self._configs = configs
        self._digests = digests
        self.metrics = MetricsRegistry(log, self.run_id)
        self.spans = SpanRecorder(log.add, self.run_id)
        self._t0 = time.perf_counter()
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
        """Open (or, with ``resume=True``, re-enter) a run."""
        from repro.core.cache import config_snapshot

        root = state.runs_root(results_dir)
        snapshots = [config_snapshot(c) for c in configs]
        manifest = manifest_mod.build_manifest(
            run_id=new_run_id(), kind=kind, name=name, configs=configs,
            engine=engine, workers=workers, cache_dir=cache_dir,
            advise=advise, fault_plan=fault_plan, reproduces=reproduces,
            digests=[digest for digest, _ in snapshots])
        if resume:
            old = find_resumable(root, manifest["sweep_key"])
            if old is not None:
                # same run_id; its records append to a new log of this
                # process, and the manifest records the lineage explicitly
                manifest.update(run_id=old["run_id"], created=old["created"],
                                resumed_from=old["run_id"])
        log = runlog.process_log(root,
                                 renew=manifest["resumed_from"] is not None)
        log.add_session(manifest_mod.session_fields())
        for config, (digest, text) in zip(configs, snapshots):
            log.add_config(config, digest, text)
        ctx = cls(log, manifest, configs, manifest["configs"])
        log.add(ctx._opened)
        log.flush()
        if manifest["resumed_from"]:
            ctx.metrics.count("run.resumed")
        return ctx

    # ------------------------------------------------------------------
    def attach_sweep(self, sweep: "SweepResult") -> None:
        """Hand the finished sweep over for the summary snapshot."""
        self.attach_rows(sweep.name, sweep.rows, sweep.errors)

    def attach_rows(self, name: str, rows: list[Any],
                    errors: list[Any] | None = None) -> None:
        """Single-config variant of :meth:`attach_sweep`."""
        self._summary_name = name
        self._rows = list(rows)
        self._errors = list(errors or [])

    # ------------------------------------------------------------------
    def _row_digests(self) -> list[str]:
        """The config digest of each attached row: the one :meth:`open`
        computed for the config at the row's position, else (a sweep
        that skipped a config) the config's own, with its record."""
        from repro.core.cache import config_snapshot

        configs, digests = self._configs, self._digests
        out = []
        for i, row in enumerate(self._rows):
            config = row.config
            if i < len(configs) and (configs[i] is config
                                     or configs[i] == config):
                out.append(digests[i])
            else:
                out.append(self.log.add_config(config,
                                               *config_snapshot(config)))
        return out

    def finalize(self, status: str = "completed",
                 error: BaseException | None = None) -> None:
        """Seal the run: every queued record, the summary rows and the
        changed manifest fields (whose ``n_rows`` and ``wall_seconds``
        readers rebuild ``sweep.rows_per_s`` from) in one append."""
        wall = time.perf_counter() - self._t0
        self.log.add(runlog.summary_record(
            self.run_id, self._summary_name, self._rows, self._row_digests()))
        if error is not None:
            self.manifest["error"] = f"{type(error).__name__}: {error}"
        self.manifest.update(
            status=status, finished=time.strftime("%Y-%m-%dT%H:%M:%S"),
            wall_seconds=round(wall, 6), n_rows=len(self._rows),
            n_errors=len(self._errors),
            errors=[{"config": err.config.label(), "error": err.error,
                     "message": err.message} for err in self._errors])
        opened = self._opened
        closing = {key: value for key, value in self.manifest.items()
                   if key not in opened or opened[key] != value}
        self.log.add(runlog.record(self.run_id, "manifest", closing))
        self.log.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<RunContext {self.run_id} in {self.log.path}>"


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
    phase rather than scattering sibling runs.
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
    spans = ctx.spans
    span = spans.open(kind, label=name, engine=engine, configs=len(configs))
    state.activate(ctx)
    try:
        yield ctx
    except BaseException as exc:
        span.set(error=type(exc).__name__)
        spans.close(span)
        ctx.finalize(status="failed", error=exc)
        raise
    else:
        spans.close(span)
        ctx.finalize(status="completed")
    finally:
        state.deactivate(ctx)
