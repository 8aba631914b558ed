"""Telemetry enablement and the active-run registry.

One process holds at most one **active** :class:`~repro.telemetry.run.
RunContext` — the run every counter increment and span lands in.  The
registry is deliberately tiny: the hot-path question ("is anything
recording?") must cost one module-global read, because it is asked on
every cache probe of an uninstrumented sweep too.

Enablement mirrors the lint/advise gates: the ``REPRO_TELEMETRY``
environment variable is the source of truth (so it travels into sweep
worker processes), with :func:`set_telemetry` as the programmatic,
env-propagating switch and ``--no-telemetry`` as the CLI spelling.
Worker processes additionally call :func:`suppress_in_worker` (the
process-pool initializer) so a forked child never appends to the
parent's runs — orchestration telemetry is a parent-side story.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from threading import get_ident
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.run import RunContext

#: Environment variable switching telemetry off (``off``/``0``/``no``/
#: ``false``, case-insensitive); anything else — including unset — is on.
ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Environment variable overriding the results root (default ``results``
#: under the current directory); run logs live in ``<root>/runs``.
ENV_RESULTS_DIR = "REPRO_RESULTS_DIR"

_OFF_VALUES = frozenset({"off", "0", "no", "false"})

#: Process-wide suppression: > 0 silences telemetry regardless of the
#: environment (pool worker processes, see :func:`suppress_in_worker`).
_suppressed = 0

#: Thread id -> depth of :func:`suppressed` blocks open on that thread.
#: Empty on every hot path that suppresses nothing, so the check stays
#: one module-global read.
_suppressed_threads: dict[int, int] = {}

_active: "RunContext | None" = None


def enabled() -> bool:
    """Is telemetry recording anything on this thread right now?"""
    if _suppressed or (_suppressed_threads
                       and get_ident() in _suppressed_threads):
        return False
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() \
        not in _OFF_VALUES


def set_telemetry(on: bool) -> None:
    """Switch telemetry globally, propagating to worker processes."""
    if on:
        os.environ.pop(ENV_TELEMETRY, None)
    else:
        os.environ[ENV_TELEMETRY] = "off"


def results_root() -> Path:
    """``$REPRO_RESULTS_DIR``, else ``./results``."""
    env = os.environ.get(ENV_RESULTS_DIR)
    return Path(env).expanduser() if env else Path("results")


def set_results_dir(path: str | Path) -> None:
    """Set the results root, propagating to worker processes."""
    os.environ[ENV_RESULTS_DIR] = str(path)


#: ``$REPRO_RESULTS_DIR`` (or ``None``) -> the runs root it names.
_default_roots: dict[str | None, Path] = {}


def runs_root(results_dir: str | Path | None = None) -> Path:
    """The directory of the run logs (:mod:`repro.telemetry.runlog`);
    the default one is resolved once per value of
    :data:`ENV_RESULTS_DIR`."""
    if results_dir is not None:
        return Path(results_dir) / "runs"
    env = os.environ.get(ENV_RESULTS_DIR)
    root = _default_roots.get(env)
    if root is None:
        root = _default_roots[env] = results_root() / "runs"
    return root


def current_run() -> "RunContext | None":
    """The active run, or ``None`` (disabled, suppressed, or no run)."""
    if _suppressed or (_suppressed_threads
                       and get_ident() in _suppressed_threads):
        return None
    return _active


def activate(ctx: "RunContext") -> None:
    """Install ``ctx`` as the process's active run (must be free)."""
    global _active
    if _active is not None:
        raise RuntimeError(
            f"run {_active.run_id} is already active; nested runs must "
            f"record spans into it instead"
        )
    _active = ctx


def deactivate(ctx: "RunContext") -> None:
    """Clear the active run (tolerates a stale/foreign ``ctx``)."""
    global _active
    if _active is ctx:
        _active = None


@contextmanager
def suppressed() -> Iterator[None]:
    """Silence telemetry on the calling thread for a block (used by
    ``repro reproduce`` so a replay never records itself into the run
    it is checking, and by the scheduler's worker threads).

    Other threads keep recording: a sweep's loop thread still counts
    its completions while a fallback thread simulates silently.
    """
    tid = get_ident()
    _suppressed_threads[tid] = _suppressed_threads.get(tid, 0) + 1
    try:
        yield
    finally:
        depth = _suppressed_threads.pop(tid) - 1
        if depth:
            _suppressed_threads[tid] = depth


def suppress_in_worker() -> None:
    """Process-pool initializer: permanently silence telemetry in a
    sweep worker (the parent records the orchestration story)."""
    global _suppressed
    _suppressed += 1
