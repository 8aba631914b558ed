"""The sweep service daemon: asyncio unix-socket server for sweep jobs.

One :class:`SweepService` owns one socket, one
:class:`~repro.core.scheduler.Scheduler` (dedup + worker pool), one
:class:`~repro.service.jobs.JobLedger`, and a registry of jobs.  Each
client connection is a coroutine speaking :mod:`repro.service.protocol`
frames; each job is a coroutine streaming per-row events to any number
of watchers through a replayable event list, so a late (or reconnected)
watcher sees the full stream.

Lifecycle:

* ``start()`` binds the socket and **resumes** every non-terminal job
  found in the ledger — completed rows of a half-finished job come
  straight from the content-addressed cache, so a resume re-executes
  only what never finished;
* SIGTERM/SIGINT (or the ``shutdown`` op) begin a **drain**: new
  submissions are refused with an ``unavailable`` error (clients raise
  a typed, retryable :class:`~repro.errors.ServiceUnavailable`),
  running jobs finish and are journaled, queued jobs are left in the
  ledger for the next server;
* with telemetry on, every job records itself as a run of kind
  ``service-job`` in the server process's run log — manifest,
  ``queue-wait``/``execute`` spans with per-config
  ``execute``/``dedup-hit``/``cache-hit`` children, ``service.*``
  metrics, and the summary rows (so ``repro report`` and ``repro
  reproduce`` work on service jobs unchanged).  Concurrent jobs
  interleave their records; the run id keeps them apart.

:func:`serve_in_thread` hosts a service on a background thread of the
current process — the harness tests, benchmarks, and notebook users
share it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import threading
import time
from functools import partial
from pathlib import Path
from typing import Any

import repro
from repro import telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import RetryPolicy, SweepError
from repro.core.runner import Row
from repro.core.scheduler import Scheduler
from repro.errors import ProtocolError, ServiceError
from repro.service import protocol
from repro.service.client import default_socket_path
from repro.service.fairshare import FairShareQueue
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    EXPIRED,
    FAILED,
    QUEUED,
    RUNNING,
    JobLedger,
    JobRecord,
    JobSpec,
    new_job_id,
)
from repro.telemetry.run import RunContext

#: Environment override for the admission cap (``repro serve`` flag
#: wins; ``0``/unset means unbounded).
ENV_MAX_QUEUED = "REPRO_SERVICE_MAX_QUEUED"


def _env_max_queued() -> int | None:
    raw = os.environ.get(ENV_MAX_QUEUED, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class SweepService:
    """A long-running, multi-client sweep job server.

    Parameters
    ----------
    socket_path:
        Unix socket to listen on (default:
        :func:`~repro.service.client.default_socket_path`).
    cache:
        Shared result cache (a
        :class:`~repro.core.cache.ResultCache` makes jobs durable:
        the cache's log, with rows and failure strikes, and the job
        ledger live in its directory).  ``None``
        serves from memory only.
    workers:
        Process-pool width for event-engine rows.
    max_jobs:
        Jobs allowed to execute concurrently; the rest queue under the
        weighted fair-share policy (that wait is the ``queue-wait``
        span).
    max_queued:
        Admission cap: submissions while this many jobs are already
        pending (queued or running) are rejected with a typed,
        retryable ``overloaded`` error frame.  ``None`` falls back to
        ``$REPRO_SERVICE_MAX_QUEUED``; unset/0 means unbounded (the
        pre-hardening behavior).
    heartbeat_s:
        Emit a ``heartbeat`` frame on a watch stream after this many
        seconds of silence, so clients can tell "slow job" from "dead
        server".  ``None`` disables heartbeats.
    retry:
        :class:`~repro.core.parallel.RetryPolicy` of the event
        executions.  Its ``timeout_s`` is the per-execution progress
        watchdog: a config attempt exceeding it is killed and retried
        (``max_attempts``, ``backoff_s``), then failed and struck in the
        cache's log so quarantine accrues.  ``None`` (the default)
        serves with no watchdog: one attempt per execution.
    results_dir:
        Telemetry results root for per-job runs (default:
        the usual ``$REPRO_RESULTS_DIR`` / ``./results`` resolution).
    drain_timeout_s:
        How long a drain waits for running jobs before giving up and
        leaving them to the ledger (``None`` = wait indefinitely).
    """

    def __init__(self, socket_path: str | Path | None = None, *,
                 cache: Any = None, workers: int | None = None,
                 max_jobs: int = 4, max_queued: int | None = None,
                 heartbeat_s: float | None = 10.0,
                 retry: RetryPolicy | None = None,
                 results_dir: str | Path | None = None,
                 drain_timeout_s: float | None = None,
                 simulate_fn: Any = None) -> None:
        if max_jobs < 1:
            raise ServiceError("max_jobs must be positive")
        if max_queued is not None and max_queued < 1:
            raise ServiceError("max_queued must be positive (or None)")
        self.socket_path = Path(socket_path) if socket_path is not None \
            else default_socket_path()
        self.cache = cache
        self.results_dir = Path(results_dir) if results_dir is not None \
            else None
        self.drain_timeout_s = drain_timeout_s
        self.scheduler = Scheduler(
            cache, workers=workers, start_method="spawn",
            retry=retry or RetryPolicy(timeout_s=None),
            simulate_fn=simulate_fn)
        self.ledger = JobLedger.for_cache(cache)
        self.jobs: dict[str, JobRecord] = {}
        self.draining = False
        self.max_jobs = max_jobs
        self.max_queued = max_queued if max_queued is not None \
            else _env_max_queued()
        self.heartbeat_s = heartbeat_s
        self._job_tasks: dict[str, asyncio.Task[None]] = {}
        self._job_conds: dict[str, asyncio.Condition] = {}
        self._exec_tasks: dict[str, list[asyncio.Task[Any]]] = {}
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._queue: FairShareQueue | None = None
        self._reaper: asyncio.Task[None] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_at = time.time()
        self._n_resumed = 0
        self._n_rejected = 0
        self._n_expired = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _socket_alive(self) -> bool:
        """Connect-probe an existing socket file: is a server home?

        Accepting the connection is not proof of life — a forked pool
        worker that inherited the old listening fd keeps the kernel
        accepting into a backlog nobody reads.  A live server greets
        every connection with a hello frame immediately, so the probe
        demands one within the timeout.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(str(self.socket_path)), 2.0)
        except (ConnectionRefusedError, FileNotFoundError,
                asyncio.TimeoutError, OSError):
            return False
        try:
            greeting = await asyncio.wait_for(reader.readline(), 2.0)
        except (asyncio.TimeoutError, ConnectionResetError, OSError):
            greeting = b""
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        return bool(greeting)

    async def start(self) -> None:
        """Bind the socket and resume ledgered jobs.

        An existing socket file is connect-probed first: a live server
        answering it means refusing to start (unlinking it would orphan
        that server's clients); only a dead socket — connection refused
        — is removed as stale.
        """
        self._queue = FairShareQueue(self.max_jobs)
        self._stop_event = asyncio.Event()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            if await self._socket_alive():
                raise ServiceError(
                    f"socket {self.socket_path} is owned by a live "
                    f"server; refusing to start (stop it first, or "
                    f"serve on a different --socket)")
            try:
                self.socket_path.unlink()  # stale socket, dead server
            except OSError:
                pass
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=str(self.socket_path),
            limit=protocol.MAX_FRAME_BYTES)
        self._started_at = time.time()
        self._reaper = asyncio.ensure_future(self._reap_expired())
        for spec in self.ledger.incomplete():
            if spec.job_id in self.jobs:
                continue
            self._n_resumed += 1
            self._register(JobRecord(spec))

    def request_stop(self) -> None:
        """Begin the drain (signal handlers and the ``shutdown`` op)."""
        self.draining = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until a stop is requested, then drain and shut down
        (call after :meth:`start`)."""
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.shutdown()

    def _begin_stop(self) -> bool:
        """The stop preamble of :meth:`shutdown` and :meth:`abort`:
        refuse new work, stop the reaper, close the listening socket.
        False when the service was already stopping."""
        if self._stopped:
            return False
        self._stopped = True
        self.draining = True
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
        return True

    async def shutdown(self) -> None:
        """Drain: refuse new work, finish running jobs, journal the
        rest, release the socket and the pool."""
        if not self._begin_stop():
            return
        if self._server is not None:
            await self._server.wait_closed()
        tasks = [t for t in self._job_tasks.values() if not t.done()]
        if tasks:
            gathered = asyncio.gather(*tasks, return_exceptions=True)
            try:
                if self.drain_timeout_s is None:
                    await gathered
                else:
                    await asyncio.wait_for(gathered, self.drain_timeout_s)
            except asyncio.TimeoutError:
                for task in tasks:
                    task.cancel()
        conns = [t for t in self._conn_tasks if not t.done()]
        for conn in conns:
            conn.cancel()
        if conns:
            await asyncio.gather(*conns, return_exceptions=True)
        self.scheduler.close(wait=True)
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    async def abort(self) -> None:
        """Hard stop: the closest an in-process server can get to
        SIGKILL (the chaos harness's crash primitive).

        No drain, no ledger writes, and — deliberately — the socket
        file is **left behind**, exactly like a killed process leaves
        it; the restart path must connect-probe and reclaim it.
        """
        if not self._begin_stop():
            return
        doomed: list[asyncio.Task[Any]] = [
            t for t in (*self._job_tasks.values(), *self._conn_tasks)
            if not t.done()]
        for task in doomed:
            task.cancel()
        if doomed:
            # Bounded wait: a worker stuck in an executor cannot be
            # interrupted; abandon it like a killed process would.
            await asyncio.wait(doomed, timeout=2.0)
        for task in doomed:
            if task.done() and not task.cancelled():
                task.exception()  # retrieved: crash-path noise is ours
        self.scheduler.close(wait=False)
        if self._stop_event is not None:
            self._stop_event.set()

    def run(self) -> int:
        """Synchronous entrypoint (``repro serve``): serve until
        SIGTERM/SIGINT, drain, exit 0."""
        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            if threading.current_thread() is threading.main_thread():
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.request_stop)
                    except (NotImplementedError, RuntimeError):
                        pass
            await self.serve_until_stopped()

        asyncio.run(main())
        return 0

    # ------------------------------------------------------------------
    # job registry
    # ------------------------------------------------------------------
    def _register(self, job: JobRecord) -> JobRecord:
        self.jobs[job.job_id] = job
        self._job_conds[job.job_id] = asyncio.Condition()
        task = asyncio.ensure_future(self._run_job(job))
        self._job_tasks[job.job_id] = task

        def _done(t: "asyncio.Task[None]", j: str = job.job_id) -> None:
            self._job_tasks.pop(j, None)
            if not t.cancelled():
                # Retrieve (don't re-raise) so a task killed by the
                # chaos harness's SimulatedKill never logs as lost;
                # ordinary failures were already converted to a
                # terminal job state inside _run_job.
                t.exception()

        task.add_done_callback(_done)
        return job

    def find_job(self, job_id: str) -> JobRecord | None:
        """Exact job-id match, else a unique-prefix match."""
        job = self.jobs.get(job_id)
        if job is not None:
            return job
        matches = [j for key, j in self.jobs.items()
                   if key.startswith(job_id)]
        return matches[0] if len(matches) == 1 else None

    def stats(self) -> dict[str, Any]:
        """The ``status`` op payload: scheduler + job-state counters."""
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "draining": self.draining,
            "workers": self.scheduler.workers,
            "max_jobs": self.max_jobs,
            "max_queued": self.max_queued,
            "jobs_total": len(self.jobs),
            "jobs_resumed": self._n_resumed,
            "jobs_rejected": self._n_rejected,
            "jobs_expired": self._n_expired,
            "jobs_by_state": by_state,
            **self.scheduler.stats,
        }

    def pending_jobs(self) -> int:
        """Jobs admitted but not yet terminal (the admission measure)."""
        return sum(1 for job in self.jobs.values() if not job.terminal)

    def health(self) -> dict[str, Any]:
        """The ``health`` op payload: liveness-probe essentials.

        Unlike :meth:`stats` (cumulative counters), this is the
        *operational snapshot* a fleet monitor scrapes: queue state,
        pool state, ledger lag, and the knobs that shape admission.
        """
        now = time.time()
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        queue = self._queue
        ledger_lag = None if not self.ledger.last_append_at \
            else round(now - self.ledger.last_append_at, 3)
        return {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "version": repro.__version__,
            "uptime_s": round(now - self._started_at, 3),
            "queue_depth": queue.depth if queue is not None else 0,
            "running": queue.in_service if queue is not None else 0,
            "pending": self.pending_jobs(),
            "inflight_executions": self.scheduler.inflight,
            "pool_state": self.scheduler.pool_state,
            "max_jobs": self.max_jobs,
            "max_queued": self.max_queued,
            "heartbeat_s": self.heartbeat_s,
            "ledger_lag_s": ledger_lag,
            "jobs_by_state": by_state,
            "rejected": self._n_rejected,
            "expired": self._n_expired,
            "watchdog_kills": self.scheduler.stats["watchdog_kills"],
            "fair_share": queue.stats() if queue is not None else {},
        }

    # ------------------------------------------------------------------
    # event streams
    # ------------------------------------------------------------------
    async def _publish(self, job: JobRecord, event: dict[str, Any]) -> None:
        cond = self._job_conds[job.job_id]
        async with cond:
            job.events.append(event)
            cond.notify_all()

    async def _next_event(self, job: JobRecord,
                          index: int) -> dict[str, Any]:
        cond = self._job_conds[job.job_id]
        async with cond:
            while len(job.events) <= index:
                await cond.wait()
            return job.events[index]

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    async def _reap_expired(self) -> None:
        """Deadline reaper: expire jobs whose wall-clock budget ran
        out, queued or running alike."""
        while True:
            now = time.time()
            nearest: float | None = None
            for job in list(self.jobs.values()):
                if job.terminal:
                    continue
                deadline = job.deadline_at
                if deadline is None:
                    continue
                if now >= deadline:
                    await self._expire(job)
                elif nearest is None or deadline < nearest:
                    nearest = deadline
            if nearest is None:
                await asyncio.sleep(0.25)
            else:
                await asyncio.sleep(min(0.25, max(0.01, nearest - now)))

    async def _expire(self, job: JobRecord) -> None:
        """Move one overdue job to ``expired``.

        A queued job just leaves the fair-share queue.  A running job
        has its per-config subscriptions cancelled — the scheduler's
        reference counts then cancel each underlying execution *only
        if no other job still awaits it* (shared work survives).
        """
        if job.terminal:
            return
        was_queued = job.state == QUEUED
        job.transition(
            EXPIRED,
            error=f"deadline of {job.spec.deadline_s}s exceeded")
        self.ledger.record_state(job)
        self._n_expired += 1
        telemetry.count("service.jobs.expired")
        if was_queued:
            if self._queue is not None:
                self._queue.drop(job)
            await self._publish(job, {"type": "done",
                                      "job": job.to_dict()})
        else:
            for task in self._exec_tasks.get(job.job_id, []):
                task.cancel()

    async def _run_job(self, job: JobRecord) -> None:
        assert self._queue is not None
        try:
            await self._queue.acquire(job)
        except asyncio.CancelledError:
            # Expired (or dropped) while queued: the reaper already
            # journaled the transition and closed the stream.
            return
        run_ctx: RunContext | None = None
        finished = False
        try:
            if job.state != QUEUED:
                return  # cancelled/expired while waiting its turn
            if self.draining:
                return  # stays queued in the ledger for the next server
            job.transition(RUNNING)
            self.ledger.record_state(job)
            run_ctx = self._open_run(job)
            queue_wait = time.time() - job.submitted_at
            telemetry.observe("service.queue_wait_seconds", queue_wait)
            if run_ctx is not None:
                run_ctx.metrics.observe("service.queue_wait_seconds",
                                        queue_wait)
                now = run_ctx.spans.now()
                run_ctx.spans.emit("queue-wait",
                                   max(0.0, now - queue_wait), now,
                                   job=job.job_id)
            status, error = COMPLETED, ""
            try:
                status, error = await self._execute_job(job, run_ctx)
            except asyncio.CancelledError:
                # Config subscriptions were torn down under us.  Job
                # expiry does that deliberately (the reaper already
                # journaled the terminal state); anything else is a
                # genuine teardown and must keep propagating.
                if job.state != EXPIRED:
                    raise
                status, error = job.state, job.error
            except Exception as exc:  # noqa: BLE001 - job must terminate
                status, error = FAILED, f"{type(exc).__name__}: {exc}"
            transitioned = False
            if job.state == RUNNING:
                job.transition(status, error=error)
                transitioned = True
            if transitioned or job.state in (COMPLETED, FAILED):
                self.ledger.record_state(job)
            await self._publish(job, {"type": "done",
                                      "job": job.to_dict()})
            finished = True
        finally:
            self._close_run(run_ctx, job, finished)
            self._queue.release()

    async def _execute_job(self, job: JobRecord,
                           run_ctx: RunContext | None
                           ) -> tuple[str, str]:
        """Dispatch every config of one job; returns (status, error)."""
        spec = job.spec
        configs = spec.configs
        outcomes: list[Row | None] = [None] * len(configs)
        errors: list[SweepError] = []
        runnable: list[tuple[int, ExperimentConfig]] = []
        for i, config in enumerate(configs):
            entry = self.scheduler.quarantined(spec.name, config,
                                                 spec.engine)
            if entry is not None:
                job.n_failed += 1
                job.n_quarantined += 1
                err = SweepError.from_quarantine(config, entry)
                errors.append(err)
                if run_ctx is not None:
                    run_ctx.metrics.count("service.quarantined")
                await self._publish(job, protocol.row_error_frame(
                    i, err.error, err.message, quarantined=True))
            else:
                runnable.append((i, config))

        exec_span = None
        if run_ctx is not None:
            exec_span = run_ctx.spans.open(
                "execute", job=job.job_id, engine=spec.engine,
                configs=len(runnable))

        async def one(i: int, config: ExperimentConfig
                      ) -> tuple[int, float, str, bool, Any]:
            t0 = time.perf_counter()
            source, ok, value = await self.scheduler.obtain(
                spec.name, config, spec.engine)
            return i, time.perf_counter() - t0, source, ok, value

        tasks = [asyncio.ensure_future(one(i, c)) for i, c in runnable]
        self._exec_tasks[job.job_id] = tasks
        try:
            for fut in asyncio.as_completed(tasks):
                i, dt, source, ok, value = await fut
                if job.state != RUNNING:
                    break  # cancelled mid-stream
                if run_ctx is not None:
                    end = run_ctx.spans.now()
                    name = {"executed": "execute", "dedup": "dedup-hit",
                            "cache": "cache-hit"}[source]
                    run_ctx.spans.emit(name, max(0.0, end - dt), end,
                                       parent=exec_span,
                                       config=configs[i].label())
                    run_ctx.metrics.count(f"service.rows.{source}")
                    run_ctx.metrics.observe("service.config_seconds", dt)
                if ok:
                    job.note_row(source)
                    outcomes[i] = value
                    await self._publish(
                        job, protocol.row_frame(i, value, source))
                else:
                    job.n_failed += 1
                    err = SweepError.from_exception(configs[i], value)
                    errors.append(err)
                    if run_ctx is not None:
                        run_ctx.metrics.count("service.rows.failed")
                    await self._publish(job, protocol.row_error_frame(
                        i, err.error, err.message))
        finally:
            self._exec_tasks.pop(job.job_id, None)
            for task in tasks:
                task.cancel()
            if run_ctx is not None and exec_span is not None:
                run_ctx.spans.close(exec_span)

        if job.state != RUNNING:
            self._attach_summary(run_ctx, job, outcomes, errors)
            return job.state, job.error
        if spec.engine == "auto":
            try:
                with telemetry.span("cross-validate",
                                    configs=len(configs)):
                    await asyncio.get_running_loop().run_in_executor(
                        None, partial(self._cross_validate, spec,
                                      list(outcomes)))
            except Exception as exc:  # noqa: BLE001 - job-level failure
                self._attach_summary(run_ctx, job, outcomes, errors)
                return FAILED, f"{type(exc).__name__}: {exc}"
        self._attach_summary(run_ctx, job, outcomes, errors)
        return (COMPLETED, "") if not errors else (
            COMPLETED, f"{len(errors)} config(s) failed")

    def _cross_validate(self, spec: JobSpec,
                        outcomes: list[Row | None]) -> None:
        """The ``auto`` engine's seeded event cross-check (thread-side,
        telemetry-suppressed; raises ``EngineDisagreement``)."""
        from repro.analytic.engine import cross_validate

        with telemetry.suppressed():
            cross_validate(spec.name, list(spec.configs), list(outcomes))

    # ------------------------------------------------------------------
    # per-job telemetry
    # ------------------------------------------------------------------
    def _open_run(self, job: JobRecord) -> RunContext | None:
        """A detached (never globally-activated) run for one job — many
        jobs record concurrently, one run id each."""
        if not telemetry.enabled():
            return None
        try:
            ctx = RunContext.open(
                kind="service-job", name=job.spec.name,
                configs=list(job.spec.configs), engine=job.spec.engine,
                workers=self.scheduler.workers,
                cache_dir=str(getattr(self.cache, "directory", ""))
                or None,
                results_dir=self.results_dir)
        except Exception:  # noqa: BLE001 - telemetry must never kill a job
            return None
        ctx.manifest["job_id"] = job.job_id
        ctx.metrics.count("service.jobs")
        return ctx

    @staticmethod
    def _attach_summary(run_ctx: RunContext | None, job: JobRecord,
                        outcomes: list[Row | None],
                        errors: list[SweepError]) -> None:
        if run_ctx is None:
            return
        rows = [row for row in outcomes if row is not None]
        run_ctx.attach_rows(job.spec.name, rows, errors)

    @staticmethod
    def _close_run(run_ctx: RunContext | None, job: JobRecord,
                   finished: bool) -> None:
        """Finalize a finished job's run; after a teardown cancellation,
        flush the records queued so far to the run log."""
        if run_ctx is None:
            return
        try:
            if finished:
                run_ctx.finalize(status=job.state)
            else:
                run_ctx.log.flush()
        except Exception:  # noqa: BLE001 - telemetry must never kill a job
            pass

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter,
                    frame: dict[str, Any]) -> bool:
        try:
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # server teardown: drop the connection quietly
        except BaseException:  # noqa: BLE001 - a connection handler
            # must never take the server down (and the chaos harness's
            # SimulatedKill deliberately detonates here); the client
            # sees the closed socket either way.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        await self._send(writer, protocol.hello_frame(
            repro.__version__, os.getpid()))
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._send(writer, protocol.error_frame(
                    "protocol", "frame exceeds the size limit"))
                return
            except (ConnectionResetError, OSError):
                return
            if not line:
                return
            try:
                frame = protocol.decode_frame(line)
                op = protocol.check_request(frame)
            except ProtocolError as exc:
                await self._send(writer, protocol.error_frame(
                    "protocol", str(exc)))
                continue
            if not await self._dispatch(op, frame, writer):
                return

    async def _dispatch(self, op: str, frame: dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; returns False to end the connection."""
        if op == "ping":
            return await self._send(writer, {"type": "pong",
                                             "t": time.time()})
        if op == "status":
            return await self._send(writer, {"type": "status",
                                             "stats": self.stats()})
        if op == "health":
            return await self._send(writer, {"type": "health",
                                             "health": self.health()})
        if op == "jobs":
            ordered = sorted(self.jobs.values(),
                             key=lambda j: j.submitted_at)
            return await self._send(writer, {
                "type": "jobs",
                "jobs": [j.to_dict() for j in ordered]})
        if op == "submit":
            return await self._op_submit(frame, writer)
        if op == "watch":
            return await self._op_watch(frame, writer)
        if op == "cancel":
            return await self._op_cancel(frame, writer)
        if op == "shutdown":
            await self._send(writer, {"type": "ack", "op": "shutdown"})
            self.request_stop()
            return False
        return await self._send(writer, protocol.error_frame(
            "protocol", f"unhandled op {op!r}"))  # pragma: no cover

    async def _op_submit(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> bool:
        try:
            spec, watch = protocol.parse_submit(frame)
        except ProtocolError as exc:
            return await self._send(writer, protocol.error_frame(
                "bad-request", str(exc)))
        if self.draining:
            return await self._send(writer, protocol.error_frame(
                "unavailable",
                "service is draining for shutdown; retry against the "
                "next server"))
        pending = self.pending_jobs()
        telemetry.gauge("service.pending_jobs", pending)
        if self.max_queued is not None and pending >= self.max_queued:
            # Admission control: refuse *before* registering or
            # journaling anything, so a rejected submission leaves no
            # trace to lose.  The hint scales with the backlog each
            # execution slot must clear.
            self._n_rejected += 1
            telemetry.count("service.jobs.rejected")
            retry_after = round(
                0.05 * (1 + pending / max(1, self.max_jobs)), 3)
            return await self._send(writer, protocol.error_frame(
                "overloaded",
                f"admission queue is full ({pending} pending >= "
                f"--max-queued {self.max_queued}); retry with backoff",
                queue_depth=pending, max_queued=self.max_queued,
                retry_after_s=retry_after))
        job = self._register(JobRecord(dataclasses.replace(
            spec, job_id=new_job_id(), submitted_at=time.time())))
        # Durability order matters: ledger append *before* the ack
        # frame, so a crash in between loses an un-acked submission
        # (client retries) — never an acked one.
        self.ledger.record_submit(job)
        if not await self._send(writer, {"type": "job",
                                         "job": job.to_dict()}):
            return False
        if watch:
            return await self._stream_job(job, writer)
        return True

    async def _op_watch(self, frame: dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        job = self.find_job(str(frame.get("job_id", "")))
        if job is None:
            return await self._send(writer, protocol.error_frame(
                "unknown-job", f"no job matches {frame.get('job_id')!r}"))
        if not await self._send(writer, {"type": "job",
                                         "job": job.to_dict()}):
            return False
        return await self._stream_job(job, writer)

    async def _op_cancel(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> bool:
        job = self.find_job(str(frame.get("job_id", "")))
        if job is None:
            return await self._send(writer, protocol.error_frame(
                "unknown-job", f"no job matches {frame.get('job_id')!r}"))
        if not job.terminal:
            was_queued = job.state == QUEUED
            job.transition(CANCELLED, error="cancelled by client")
            self.ledger.record_state(job)
            if was_queued:
                # the job task will exit without publishing; free its
                # fair-share waiter and close the stream for watchers
                if self._queue is not None:
                    self._queue.drop(job)
                await self._publish(job, {"type": "done",
                                          "job": job.to_dict()})
        return await self._send(writer, {"type": "job",
                                         "job": job.to_dict()})

    async def _stream_job(self, job: JobRecord,
                          writer: asyncio.StreamWriter) -> bool:
        index = 0
        while True:
            if self.heartbeat_s is None:
                event = await self._next_event(job, index)
            else:
                try:
                    event = await asyncio.wait_for(
                        self._next_event(job, index), self.heartbeat_s)
                except asyncio.TimeoutError:
                    # Silent stream: prove liveness so the client's
                    # read timeout means "dead server", not "slow job".
                    if not await self._send(writer,
                                            protocol.heartbeat_frame()):
                        return False
                    continue
            if not await self._send(writer, event):
                return False  # watcher went away; the job carries on
            if event.get("type") == "done":
                return True
            index += 1


class ServiceThread:
    """A :class:`SweepService` hosted on a daemon thread.

    The thread runs its own event loop; :meth:`stop` requests a drain
    and joins.  Tests, benchmarks, and interactive sessions use this to
    get a real server without a second process.
    """

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        self._ready.set()
        await self.service.serve_until_stopped()

    def start(self, timeout_s: float = 30.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServiceError("service thread did not come up in time")
        if self.error is not None:
            raise ServiceError(
                f"service thread failed to start: {self.error}")
        return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain and join (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout_s)

    def abort(self, timeout_s: float = 30.0) -> None:
        """Crash-stop the hosted service: no drain, no ledger writes,
        socket file left behind (the chaos harness's SIGKILL stand-in).
        Idempotent, joins the thread."""
        import concurrent.futures

        if self._loop is not None and self._thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.service.abort(), self._loop)
            try:
                fut.result(timeout_s)
            except (concurrent.futures.TimeoutError,
                    concurrent.futures.CancelledError, RuntimeError):
                pass
        self._thread.join(timeout_s)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()


def serve_in_thread(service: SweepService, *,
                    timeout_s: float = 30.0) -> ServiceThread:
    """Start ``service`` on a background thread and wait until its
    socket is accepting connections."""
    return ServiceThread(service).start(timeout_s)
