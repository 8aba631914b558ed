"""repro.telemetry — structured observability for the sweep pipeline.

Every ``run_config``/``run_sweep``/CLI invocation (with telemetry on,
the default) records itself as a run: records tagged with its run id in
its process's log ``results/runs/<session>.jsonl``
(:mod:`repro.telemetry.runlog`) — see DESIGN.md's telemetry section for
the schemas and the stable metric vocabulary.

The helpers here are the instrumentation surface the rest of the
codebase uses; all of them are near-free no-ops when no run is active,
so an uninstrumented path (``REPRO_TELEMETRY=off`` / ``--no-telemetry``
/ worker processes) costs one module-global check per call site::

    from repro import telemetry

    telemetry.count("cache.hit")
    with telemetry.span("gate.lint", config=label):
        ...
    telemetry.observe("gate.lint.seconds", dt)
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager

from repro.telemetry.run import RunContext, run_scope
from repro.telemetry.spans import Span
from repro.telemetry.state import (
    ENV_RESULTS_DIR,
    ENV_TELEMETRY,
    current_run,
    enabled,
    results_root,
    runs_root,
    set_results_dir,
    set_telemetry,
    suppress_in_worker,
    suppressed,
)

__all__ = [
    "ENV_RESULTS_DIR", "ENV_TELEMETRY",
    "RunContext", "Span",
    "count", "current_run", "enabled", "gauge", "observe",
    "results_root", "run_scope", "runs_root",
    "set_results_dir", "set_telemetry", "span", "suppress_in_worker",
    "suppressed",
]


def count(name: str, n: float = 1, **labels: Any) -> None:
    """Increment a counter on the active run (no-op without one)."""
    run = current_run()
    if run is not None:
        run.metrics.count(name, n, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the active run (no-op without one)."""
    run = current_run()
    if run is not None:
        run.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram observation on the active run (no-op
    without one)."""
    run = current_run()
    if run is not None:
        run.metrics.observe(name, value, **labels)


_NO_SPAN = nullcontext()


def span(name: str, **attrs: Any) -> ContextManager[Span | None]:
    """Open an orchestration span on the active run (no-op without
    one — yields ``None`` so callers can guard attribute updates)."""
    run = current_run()
    if run is None:
        return _NO_SPAN
    return run.spans.span(name, **attrs)
