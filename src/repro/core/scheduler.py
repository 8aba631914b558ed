"""The one worker pool: dedup and sharding of executions.

The scheduler answers one question — *give me the row for this config
under this engine* — while guaranteeing **at most one in-flight
execution per engine-tagged config digest** across every caller:

* a **cache hit** (the content-addressed
  :class:`~repro.core.cache.ResultCache`, keyed digest × model
  fingerprint) returns immediately;
* a digest already **in flight** subscribes to the existing execution's
  future — the second, tenth, and hundredth caller asking for the same
  config all await the same simulation;
* a genuine miss starts one execution: **event**-engine configs are
  sharded over a process pool (:func:`repro.core.parallel
  .simulate_config`), **analytic**-engine configs are scored inline on
  the loop's thread, one :func:`repro.analytic.engine.score_configs`
  call per config — the scorer is a pure-Python per-config loop, so a
  batch saves nothing and a worker thread would buy no parallelism;
* fresh completions are checkpointed by
  :func:`~repro.core.runner.record_completion` — a row, or a strike
  under the requesting sweep's name, in the cache's log — so resume and
  quarantine see every path alike.

Two callers drive it.  The sweep service's server keeps one for its
lifetime and many concurrent jobs; ``run_sweep(..., workers=N)`` builds
one per sweep and drives it from one event loop, no socket
(:func:`repro.core.parallel.run_configs`).

Executions are owned by the scheduler, not by the requester: a
*cancelled* subscriber stops waiting, the simulation still completes
and lands in the cache (that is what makes a cancelled job resumable
for free).  An *abandoned* execution — every subscriber gone — is
different: nobody will ever read the row, so the scheduler
reference-counts subscribers and cancels the execution only when the
last one leaves (:meth:`Scheduler.obtain`).

:attr:`RetryPolicy.timeout_s <repro.core.parallel.RetryPolicy>` is a
per-execution **watchdog** (while it is armed, at most ``workers`` event
executions are in flight, so its clock never runs while a config
queues): an attempt exceeding it is abandoned and retried under the
policy's bounded attempts and backoff, then failed (struck, so the
quarantine threshold accrues).  A pool worker
cannot be killed individually, so the watchdog recycles the pool.  A
crashed or unusable pool is not rebuilt: every later execution runs on
in-process threads, and no row is lost.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from typing import Any, Callable

from repro import telemetry
from repro.core.cache import config_digest
from repro.core.experiment import ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.parallel import RetryPolicy, simulate_config
from repro.core.runner import QUARANTINE_AFTER, cache_key, record_completion

#: One scheduling outcome: (source, ok, Row-or-exception) where source
#: is "cache" | "dedup" | "executed".
Outcome = tuple[str, bool, Any]


def _simulate_suppressed(config: ExperimentConfig) -> tuple[bool, Any]:
    """Thread-fallback worker: simulate with this thread's telemetry
    silenced (the caller records the orchestration story)."""
    with telemetry.suppressed():
        return simulate_config(config)


class Scheduler:
    """Dedup + dispatch engine: one per server, or one per parallel
    sweep."""

    def __init__(self, cache: Any = None, *,
                 workers: int | None = None,
                 start_method: str | None = None,
                 retry: RetryPolicy | None = None,
                 simulate_fn: Callable[[ExperimentConfig],
                                       tuple[bool, Any]] | None = None,
                 ) -> None:
        self.cache = cache
        self.workers = max(1, workers if workers is not None else 1)
        #: Pool start method; ``None`` keeps the platform default (see
        #: :meth:`_get_pool`).
        self.start_method = start_method
        #: ``retry.timeout_s`` is the per-execution watchdog.
        self.retry = retry if retry is not None else RetryPolicy()
        #: With the watchdog armed, one slot per pool worker: an
        #: execution's clock starts once it holds a slot, never while it
        #: queues.  Unwatched executions queue inside the pool instead,
        #: which keeps its workers fed back to back.
        self._slots = asyncio.Semaphore(self.workers) \
            if self.retry.timeout_s is not None else None
        #: Test/chaos seam: replaces the event-engine worker function.
        #: A custom fn runs on threads (closures don't pickle), which
        #: is exactly what the hung-worker chaos scenario needs.
        self._simulate_fn = simulate_fn
        #: The quarantine view over the cache's log (``None`` without a
        #: persistent cache); completions through the cache update it.
        self.journal: SweepJournal | None = SweepJournal.for_cache(cache)
        #: engine-tagged config digest -> the owning execution task.
        self._inflight: dict[str, asyncio.Task[tuple[bool, Any]]] = {}
        #: engine-tagged config digest -> live subscriber count; an
        #: execution whose count drops to zero is truly abandoned
        #: (every awaiting job expired) and gets cancelled.
        self._refs: dict[str, int] = {}
        self._pool: Any = None
        self._pool_broken = False
        self.stats: dict[str, int] = {
            "cache_hits": 0, "dedup_hits": 0, "executed": 0,
            "failed": 0, "pool_fallbacks": 0, "watchdog_kills": 0,
            "abandoned_executions": 0,
        }

    # ------------------------------------------------------------------
    def quarantined(self, sweep: str, config: ExperimentConfig,
                    engine: str) -> dict[str, Any] | None:
        """The strike entry if ``config``'s ``engine`` row is
        quarantined for ``sweep`` (failed
        :data:`~repro.core.runner.QUARANTINE_AFTER`+ times), else
        ``None``."""
        if self.journal is None:
            return None
        return self.journal.quarantined(sweep, config, QUARANTINE_AFTER,
                                        engine)

    # ------------------------------------------------------------------
    async def obtain(self, sweep: str, config: ExperimentConfig,
                     engine: str) -> Outcome:
        """Resolve one config to its row (or captured exception).

        Exactly one execution per digest exists at any moment; every
        concurrent caller for the same digest shares it.
        """
        key = cache_key(config, engine)
        if self.cache is not None:
            row = self.cache.get(key)
            if row is not None:
                self.stats["cache_hits"] += 1
                return "cache", True, row
        digest = config_digest(key)
        task = self._inflight.get(digest)
        if task is not None:
            self.stats["dedup_hits"] += 1
            source = "dedup"
        else:
            task = asyncio.ensure_future(
                self._execute(sweep, config, engine))
            self._inflight[digest] = task
            task.add_done_callback(
                lambda _t, d=digest: self._inflight.pop(d, None))
            source = "executed"
        self._refs[digest] = self._refs.get(digest, 0) + 1
        try:
            ok, value = await asyncio.shield(task)
        except asyncio.CancelledError:
            # This subscriber is gone (job expired / task cancelled).
            # A *shared* execution keeps running for the others — but
            # when the last subscriber leaves, nobody will ever read
            # the row, so stop burning a worker on it.
            remaining = self._refs.get(digest, 1) - 1
            self._refs[digest] = remaining
            if remaining <= 0:
                self._refs.pop(digest, None)
                if not task.done():
                    task.cancel()
                    self.stats["abandoned_executions"] += 1
            raise
        else:
            remaining = self._refs.get(digest, 1) - 1
            if remaining <= 0:
                self._refs.pop(digest, None)
            else:
                self._refs[digest] = remaining
        return source, ok, value

    # ------------------------------------------------------------------
    async def _execute(self, sweep: str, config: ExperimentConfig,
                       engine: str) -> tuple[bool, Any]:
        """One fresh execution: dispatch, then checkpoint the completion
        from this process (workers never touch the cache)."""
        if engine == "event":
            ok, value = await self._execute_event(config)
        else:
            ok, value = self._execute_analytic(config)
        self.stats["executed"] += 1
        if not ok:
            self.stats["failed"] += 1
        record_completion(self.cache, sweep, config, engine, ok, value)
        return ok, value

    # -- event engine: shard over the process pool ---------------------
    def _get_pool(self) -> Any:
        if self._pool_broken:
            return None
        if self._pool is None:
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # The server passes "spawn": a forked worker inherits
                # every open fd — the listening socket and accepted
                # connections included — so a dead server's socket
                # would stay connectable while one worker lives, and
                # fork is unsafe under the threads a server runs.  A
                # library sweep keeps the platform default (fork on
                # Linux): its pool lives for one sweep, and spawn would
                # cost each one a fresh interpreter per worker.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(
                        self.start_method),
                    initializer=telemetry.suppress_in_worker)
            except (ImportError, OSError, PermissionError):
                telemetry.count("pool.unavailable")
                self._mark_pool_broken()
        return self._pool

    def _mark_pool_broken(self) -> None:
        self._pool_broken = True
        self.stats["pool_fallbacks"] += 1
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _recycle_pool(self) -> None:
        """Throw away the pool but allow a fresh one (watchdog path).

        A process pool cannot kill one running worker; abandoning the
        pool and letting ``_get_pool`` build a new one is the closest
        legal move.  Work already queued on the old pool still runs
        there.  Unlike :meth:`_mark_pool_broken` this does not demote
        future executions to threads.
        """
        if self._pool is not None:
            telemetry.count("pool.restarts")
            self._pool.shutdown(wait=False)
            self._pool = None

    async def _watched(self, future: "asyncio.Future[tuple[bool, Any]]"
                       ) -> tuple[bool, Any]:
        """Await one execution attempt under the progress watchdog.

        Not ``asyncio.wait_for``: that waits for the cancellation to
        land, and a *running* executor future never honors a cancel —
        the watchdog would hang exactly when it is needed.  Instead the
        attempt is abandoned on timeout (its eventual result discarded,
        its eventual exception retrieved so it never logs as lost).
        """
        if self.retry.timeout_s is None:
            return await future
        done, _pending = await asyncio.wait(
            {future}, timeout=self.retry.timeout_s)
        if done:
            return future.result()
        future.add_done_callback(
            lambda f: f.cancelled() or f.exception())
        future.cancel()  # no-op if already running; pending is freed
        raise asyncio.TimeoutError

    async def _execute_event(self,
                             config: ExperimentConfig) -> tuple[bool, Any]:
        from concurrent.futures.process import BrokenProcessPool

        loop = asyncio.get_running_loop()
        attempts = self.retry.max_attempts \
            if self.retry.timeout_s is not None else 1
        for attempt in range(attempts):
            if attempt:
                telemetry.count("pool.retries")
                await asyncio.sleep(
                    self.retry.backoff_s * (2 ** (attempt - 1)))
            try:
                async with self._slots or nullcontext():
                    pool = None if self._simulate_fn is not None \
                        else self._get_pool()
                    if pool is not None:
                        try:
                            return await self._watched(
                                loop.run_in_executor(
                                    pool, simulate_config, config))
                        except (BrokenProcessPool, OSError,
                                PermissionError, RuntimeError):
                            # crashed/unusable pool: lose the pool, not
                            # the config — re-run it (and everything
                            # after it) on threads
                            self._mark_pool_broken()
                    if self._simulate_fn is not None:
                        fn = self._simulate_fn
                    else:
                        fn = _simulate_suppressed
                        telemetry.count("pool.serial_fallback")
                    return await self._watched(
                        loop.run_in_executor(None, fn, config))
            except asyncio.TimeoutError:
                # Watchdog fired: this attempt made no progress within
                # the budget.  Recycle the pool (a stuck pool worker is
                # unkillable individually) and retry under the policy;
                # threads simply get abandoned — the leaked thread dies
                # when its work function returns.
                self.stats["watchdog_kills"] += 1
                telemetry.count("service.watchdog_kill")
                self._recycle_pool()
        timeout_exc = TimeoutError(
            f"no progress within {self.retry.timeout_s}s "
            f"(watchdog, {attempts} attempt(s))")
        return False, timeout_exc

    # -- analytic engine: score inline on the loop's thread ------------
    def _execute_analytic(self, config: ExperimentConfig
                          ) -> tuple[bool, Any]:
        from repro.analytic.engine import score_configs

        with telemetry.suppressed():
            (outcome,) = score_configs([config])
        return not isinstance(outcome, Exception), outcome

    # ------------------------------------------------------------------
    @property
    def pool_state(self) -> str:
        """Health-probe view of the worker pool: ``live`` (warm process
        pool), ``cold`` (no pool built yet), or ``threads`` (pool
        broke; running on the thread fallback)."""
        if self._pool_broken:
            return "threads"
        return "live" if self._pool is not None else "cold"

    @property
    def inflight(self) -> int:
        """Executions currently owned by the scheduler."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (drained servers pass
        ``wait=True``; aborts pass ``False``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
