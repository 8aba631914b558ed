"""Process-pool fan-out for sweep execution, with failure containment.

Sweep points are independent simulations, so a sweep is embarrassingly
parallel.  :func:`run_configs` dispatches the cache-missing, de-duplicated
subset of a config list over a ``ProcessPoolExecutor`` and reassembles
results in the original order, so ``run_sweep(..., workers=N)`` is
row-for-row identical to the serial path.

Design points:

* **cache first** — lookups (and stores) happen in the parent process
  only; workers never touch the cache file, so there are no concurrent
  writers;
* **dedup** — identical configs within one sweep are simulated once and
  fanned back out to every position they occupy;
* **per-row error capture** — a worker wraps each simulation and ships
  the exception back as a value (with its traceback string and worker
  pid attached), so one failing config cannot kill a 100-point sweep;
* **incremental completion** — results are stored to the cache (and
  reported via ``on_result``) *as they arrive*, not after the whole
  batch, so a sweep killed mid-run keeps every finished row and can be
  resumed (see ``run_sweep(..., resume=True)``);
* **pool resilience** — a crashed worker (``BrokenProcessPool``) or a
  stuck pool (no completion within :attr:`RetryPolicy.timeout_s`) loses
  only the in-flight configs; survivors are retried on a fresh pool with
  exponential backoff and, as the last resort, re-dispatched serially in
  the parent;
* **graceful fallback** — ``workers <= 1``, a single missing config, or
  an unavailable pool (sandboxed environments without ``fork``/semaphores)
  all degrade to the serial loop.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro import telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.runner import Row, run_config

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


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :func:`run_configs` fights for a parallel sweep.

    ``timeout_s`` is a *progress* timeout: if no future completes within
    the window, the pool is declared stuck and its pending configs are
    retried.  ``max_attempts`` bounds pool passes (crashed or stuck pools
    trigger a retry after an exponentially growing ``backoff_s`` pause);
    whatever still isn't done after the last pass runs serially in the
    parent, so a broken pool can degrade throughput but never results.
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
    entrypoint every pool shares: the sweep fan-out here and the
    service's :mod:`repro.service.scheduler` dispatch the same function,
    so a row is bit-identical whichever path produced it.
    """
    try:
        return True, run_config(config)
    except Exception as exc:  # noqa: BLE001 - per-row capture by design
        setattr(exc, _TB_ATTR, traceback.format_exc())
        setattr(exc, _PID_ATTR, os.getpid())
        return False, exc


#: Completion callback: (config, ok, Row-or-exception) -> None.
ResultCallback = Callable[[ExperimentConfig, bool, Any], None]


def _one_pool_pass(
    configs: list[ExperimentConfig],
    workers: int,
    note: ResultCallback,
    policy: RetryPolicy,
) -> list[ExperimentConfig]:
    """One ProcessPoolExecutor pass; returns the configs it lost.

    Completions are consumed as they happen (completion order), so the
    parent checkpoints rows even if the pool dies a moment later.  A
    ``BrokenProcessPool`` (worker crashed) or a progress timeout ends the
    pass early; pending configs become the survivors to retry.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # Workers never open their own run directories: the parent records
    # the sweep, so telemetry is suppressed at pool start (works for both
    # fork and spawn start methods).
    pool = ProcessPoolExecutor(max_workers=min(workers, len(configs)),
                               initializer=telemetry.suppress_in_worker)
    pending: dict[Any, ExperimentConfig] = {}
    try:
        pending = {pool.submit(simulate_config, c): c for c in configs}
        while pending:
            done, _ = wait(pending, timeout=policy.timeout_s,
                           return_when=FIRST_COMPLETED)
            if not done:
                # no completion inside the window: the pool is stuck
                return _abandon(pool, pending)
            for fut in done:
                config = pending.pop(fut)
                try:
                    ok, value = fut.result()
                except BrokenProcessPool:
                    # this config's worker died; the whole pool is toast
                    pending[fut] = config
                    return _abandon(pool, pending)
                except Exception:  # noqa: BLE001 - pool-level failure
                    # result unpickling / executor internals: lose only
                    # this config, keep draining the rest
                    pending[fut] = config
                    return _abandon(pool, pending)
                note(config, ok, value)
    finally:
        if not pending:
            pool.shutdown(wait=True)
    return []


def _abandon(pool, pending: dict) -> list[ExperimentConfig]:
    """Tear a broken/stuck pool down without waiting on wedged workers."""
    for fut in pending:
        fut.cancel()
    pool.shutdown(wait=False, cancel_futures=True)
    return list(pending.values())


def _run_unique(
    unique: list[ExperimentConfig],
    workers: int,
    note: ResultCallback,
    policy: RetryPolicy,
) -> None:
    """Simulate each unique config, parallel if possible, resilient
    to worker crashes and stuck pools; every config is eventually
    reported through ``note`` exactly once."""
    remaining = list(unique)
    if workers > 1 and len(remaining) > 1:
        usable = True
        delay = policy.backoff_s
        for attempt in range(policy.max_attempts):
            if not remaining:
                return
            if attempt > 0 and delay > 0:
                telemetry.count("pool.restarts")
                telemetry.count("pool.retries", len(remaining))
                time.sleep(delay)
                delay *= 2
            try:
                remaining = _one_pool_pass(remaining, workers, note, policy)
            except (ImportError, OSError, PermissionError):
                usable = False   # no usable pool here — go serial
                telemetry.count("pool.unavailable")
                break
            if len(remaining) <= 1:
                break            # a single survivor is cheaper serially
        if usable and not remaining:
            return
        telemetry.count("pool.serial_fallback", len(remaining))
    for c in remaining:
        note(c, *simulate_config(c))


def run_configs(
    configs: list[ExperimentConfig],
    *,
    workers: int = 1,
    cache=None,
    on_result: ResultCallback | None = None,
    retry: RetryPolicy | None = None,
) -> list[Row | Exception]:
    """Simulate ``configs``, returning one outcome per input, in order.

    Each outcome is the :class:`Row`, or the exception that config raised.
    ``cache`` may be a plain dict or a
    :class:`~repro.core.cache.ResultCache`; hits skip dispatch entirely
    and fresh rows are stored back from the parent process **as each
    config completes** (so an interrupted sweep keeps its finished rows).
    ``on_result`` observes every fresh completion (cache hits excluded)
    in completion order — the journaling hook for resumable sweeps.
    ``retry`` tunes the pool-resilience policy (see :class:`RetryPolicy`).
    """
    policy = retry if retry is not None else RetryPolicy()
    outcomes: list[Row | Exception | None] = [None] * len(configs)

    # 1. serve cache hits; collect positions of each unique missing config
    pending: dict[ExperimentConfig, list[int]] = {}
    for i, config in enumerate(configs):
        row = cache.get(config) if cache is not None else None
        if row is not None:
            outcomes[i] = row
        else:
            pending.setdefault(config, []).append(i)

    if not pending:
        return outcomes  # type: ignore[return-value]

    # 2. simulate the unique misses; checkpoint each as it completes
    def note(config: ExperimentConfig, ok: bool, value: Any) -> None:
        telemetry.count("sweep.rows_completed" if ok
                        else "sweep.rows_failed")
        if ok and cache is not None:
            cache[config] = value
        for i in pending[config]:
            outcomes[i] = value
        if on_result is not None:
            on_result(config, ok, value)

    _run_unique(list(pending), workers, note, policy)
    return outcomes  # type: ignore[return-value]
