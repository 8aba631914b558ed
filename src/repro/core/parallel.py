"""Sweep fan-out: configs in, one outcome per config out, in order.

:func:`run_configs` is the one dispatch call behind ``run_sweep`` for
both engines.  It serves cache hits, de-duplicates the misses, and
scores them: analytic misses in one
:func:`~repro.analytic.engine.score_configs` call, event misses serially
in the parent or, with ``workers > 1``, on one in-process
:class:`~repro.core.scheduler.Scheduler` (the same process pool, watchdog
and fallback the sweep service runs on).  Rows come back in the input
order, so ``run_sweep(..., workers=N)`` is row-for-row identical to the
serial path.

* **cache first** — lookups and stores happen in the parent process
  only; workers never touch the cache file;
* **per-row error capture** — :func:`simulate_config` ships a failing
  config's exception back as a value (with its traceback and worker
  pid), so one bad config cannot kill a 100-point sweep;
* **incremental completion** — each fresh completion is checkpointed
  (:func:`~repro.core.runner.record_completion`) as it lands, so a
  killed sweep keeps every finished row and can be resumed.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro import telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.runner import Row, _simulate, cache_key, record_completion

#: Attribute names used to piggyback worker context on captured exceptions
#: (plain attributes survive pickling back to the parent).
_TB_ATTR = "_repro_traceback"
_PID_ATTR = "_repro_pid"


@dataclass(frozen=True)
class SweepError:
    """One captured per-row failure."""

    config: ExperimentConfig
    error: str     # exception class name
    message: str
    #: Formatted traceback from the raising process ("" when unknown).
    traceback: str = ""
    #: PID of the worker (or parent, serial path) that raised.
    worker_pid: int | None = None
    #: How many times the config was attempted before being quarantined.
    attempts: int = 1

    def __str__(self) -> str:
        where = f" [pid {self.worker_pid}]" if self.worker_pid else ""
        return f"{self.config.label()}{where}: {self.error}: {self.message}"

    def details(self) -> str:
        """The full diagnostic: header plus the originating traceback."""
        if not self.traceback:
            return str(self)
        return f"{self}\n{self.traceback.rstrip()}"

    @classmethod
    def from_exception(cls, config: ExperimentConfig, exc: Exception,
                       attempts: int = 1) -> "SweepError":
        return cls(
            config=config,
            error=type(exc).__name__,
            message=str(exc),
            traceback=getattr(exc, _TB_ATTR, ""),
            worker_pid=getattr(exc, _PID_ATTR, None),
            attempts=attempts,
        )

    @classmethod
    def from_quarantine(cls, config: ExperimentConfig,
                        entry: dict[str, Any]) -> "SweepError":
        """The error for a config its strikes quarantined (``entry``
        as returned by :meth:`SweepJournal.quarantined
        <repro.core.journal.SweepJournal.quarantined>`)."""
        return cls(
            config=config,
            error=entry["error"] or "Quarantined",
            message=(entry["message"] or "repeated failure")
            + f" (quarantined after {entry['fails']} attempts)",
            worker_pid=entry["pid"],
            attempts=int(entry["fails"]),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the :class:`~repro.core.scheduler.Scheduler` fights for
    each event-engine execution.

    ``timeout_s`` is the per-execution watchdog: an attempt running
    longer is abandoned, its pool recycled, and the config retried
    after an exponentially growing ``backoff_s`` pause, up to
    ``max_attempts`` attempts in all; the last timeout becomes the
    config's captured error.  ``None`` disables the watchdog (one
    attempt).  A crashed or unusable pool is not retried: the rest of
    the sweep runs in-process, so a broken pool can degrade throughput
    but never lose a row.
    """

    max_attempts: int = 3
    backoff_s: float = 0.1
    timeout_s: float | None = 300.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when given")


def default_workers() -> int:
    """A sensible ``workers`` value for "use the machine": CPU count."""
    return os.cpu_count() or 1


def simulate_config(config: ExperimentConfig) -> tuple[bool, Any]:
    """Top-level (picklable) worker: simulate one config.

    Returns ``(True, Row)`` or ``(False, exception)`` — exceptions travel
    back as values (annotated with the traceback and worker pid) so the
    parent controls error policy.  This is the one sweep-point
    entrypoint for every event-engine execution — serial, pool or
    service — so a row is bit-identical whichever path produced it.
    It runs the runner's private event execution (looked up here at
    call time) and never re-enters ``run_config``: the caller's gates
    and cache apply once, in the parent.
    """
    try:
        return True, _simulate(config)
    except Exception as exc:  # noqa: BLE001 - per-row capture by design
        setattr(exc, _TB_ATTR, traceback.format_exc())
        setattr(exc, _PID_ATTR, os.getpid())
        return False, exc


#: Completion callback: (config, ok, Row-or-exception) -> None.
ResultCallback = Callable[[ExperimentConfig, bool, Any], None]


def _run_on_scheduler(configs: list[ExperimentConfig], workers: int,
                      note: ResultCallback,
                      retry: RetryPolicy | None) -> None:
    """Simulate ``configs`` on one in-process Scheduler — one event loop,
    no socket — passing each completion to ``note`` as it lands."""
    import asyncio

    from repro.core.scheduler import Scheduler

    async def drive() -> None:
        scheduler = Scheduler(workers=workers, retry=retry)

        async def one(config: ExperimentConfig) -> None:
            _source, ok, value = await scheduler.obtain("", config, "event")
            note(config, ok, value)

        try:
            await asyncio.gather(*map(one, configs))
        except BaseException:
            scheduler.close(wait=False)
            raise
        scheduler.close()

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(drive())
        return
    # This thread already runs a loop (a notebook) and asyncio.run
    # refuses to nest, so the sweep's loop runs on a helper thread.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as host:
        host.submit(asyncio.run, drive()).result()


def run_configs(
    configs: list[ExperimentConfig],
    *,
    workers: int = 1,
    cache=None,
    retry: RetryPolicy | None = None,
    engine: str = "event",
    sweep: str | None = None,
) -> list[Row | Exception]:
    """Score ``configs``, returning one outcome per input, in order.

    Each outcome is the :class:`Row`, or the exception that config raised.
    ``cache`` may be a plain dict or a
    :class:`~repro.core.cache.ResultCache`; hits (under the engine's
    :func:`~repro.core.runner.cache_key`) skip dispatch entirely.  Each
    unique miss is scored once and checkpointed as it completes, in
    completion order: its row stored in ``cache``, or its failure struck
    there under ``sweep`` (see
    :func:`~repro.core.runner.record_completion`).
    ``engine="event"`` misses run serially or, with ``workers > 1``, on
    a process pool under ``retry`` (see :class:`RetryPolicy`); analytic
    and ``auto`` misses go to one batched scorer call.  One
    ``engine.pick.<engine>`` count per call records how many distinct
    configs were scored.
    """
    outcomes: list[Row | Exception | None] = [None] * len(configs)

    # 1. serve cache hits; collect positions of each unique missing config
    pending: dict[ExperimentConfig, list[int]] = {}
    for i, config in enumerate(configs):
        row = cache.get(cache_key(config, engine)) \
            if cache is not None else None
        if row is not None:
            outcomes[i] = row
        else:
            pending.setdefault(config, []).append(i)

    if not pending:
        return outcomes  # type: ignore[return-value]

    # 2. score the unique misses; checkpoint each as it completes
    event = engine == "event"
    misses = list(pending)
    telemetry.count(f"engine.pick.{engine}", len(misses))

    def note(config: ExperimentConfig, ok: bool, value: Any) -> None:
        if event:
            telemetry.count("sweep.rows_completed" if ok
                            else "sweep.rows_failed")
        record_completion(cache, sweep, config, engine, ok, value)
        for i in pending[config]:
            outcomes[i] = value

    if not event:
        from repro.analytic.engine import score_configs

        for config, outcome in zip(misses, score_configs(misses)):
            note(config, not isinstance(outcome, Exception), outcome)
    elif workers > 1 and len(misses) > 1:
        _run_on_scheduler(misses, min(workers, len(misses)), note, retry)
    else:
        for config in misses:
            note(config, *simulate_config(config))
    return outcomes  # type: ignore[return-value]
