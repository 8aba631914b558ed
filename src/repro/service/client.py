"""Blocking client SDK for the sweep service.

:class:`ServiceClient` speaks :mod:`repro.service.protocol` over one
unix-socket connection.  Connection failures, timeouts, and mid-stream
disconnects (a server draining for shutdown closes its socket) all
surface as the typed, retryable
:class:`~repro.errors.ServiceUnavailable` — callers decide whether to
back off and reconnect (a restarted server resumes journaled jobs, so
retrying a ``watch`` against the new server replays the full stream).

The highest-level call, :meth:`ServiceClient.run_sweep`, submits a
sweep, consumes the row stream, and reassembles a
:class:`~repro.core.runner.SweepResult` that is **row-for-row,
bit-for-bit identical** to calling :func:`repro.core.runner.run_sweep`
directly — rows ride the wire through the persistence schema, whose
float round-trip is exact.
"""

from __future__ import annotations

import os
import random
import socket
import time
from pathlib import Path
from typing import Any, Iterator

from repro.core.cache import default_cache_dir
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import SweepError
from repro.core.runner import Row, SweepResult
from repro.errors import (
    JobError,
    ProtocolError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.service import protocol

#: Environment override for the service socket location.
ENV_SERVICE_SOCKET = "REPRO_SERVICE_SOCKET"

#: Environment override for the client identity fair-share bills to.
ENV_SERVICE_CLIENT = "REPRO_SERVICE_CLIENT"


def default_socket_path() -> Path:
    """``$REPRO_SERVICE_SOCKET``, else ``service.sock`` beside the
    default result cache (server and clients agree by default)."""
    env = os.environ.get(ENV_SERVICE_SOCKET)
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service.sock"


def default_client_name() -> str:
    """``$REPRO_SERVICE_CLIENT``, else a per-process identity."""
    env = os.environ.get(ENV_SERVICE_CLIENT, "").strip()
    return env if env else f"pid-{os.getpid()}"


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.SweepService`.

    Parameters
    ----------
    socket_path:
        Where the server listens (default:
        :func:`default_socket_path`).
    connect_retries:
        Extra connection attempts before giving up with
        :class:`~repro.errors.ServiceUnavailable` — each waits
        ``backoff_s`` doubled per attempt, so a client started moments
        before its server still connects.
    timeout_s:
        Socket timeout for reads/writes; a stream that stays silent this
        long raises :class:`~repro.errors.ServiceUnavailable` rather
        than hanging forever (server heartbeats on live-but-slow jobs
        reset it).  ``None`` blocks indefinitely.
    client_name:
        Identity the server's fair-share scheduler bills this client's
        jobs to (default: ``$REPRO_SERVICE_CLIENT``, else
        ``pid-<pid>``).
    jitter_seed:
        Seeds the deterministic backoff jitter.  Defaults to a
        per-process value so N clients restarted together spread their
        retries instead of thundering in lockstep; fix it for
        reproducible tests.
    overload_retries:
        How many ``overloaded`` rejections :meth:`run_sweep` absorbs
        with exponential backoff before giving up (raising, or falling
        back locally when ``fallback="local"``).

    Usable as a context manager; the connection opens lazily on first
    use.
    """

    def __init__(self, socket_path: str | Path | None = None, *,
                 connect_retries: int = 5, backoff_s: float = 0.05,
                 timeout_s: float | None = 600.0,
                 client_name: str | None = None,
                 jitter_seed: int | None = None,
                 overload_retries: int = 6) -> None:
        self.socket_path = Path(socket_path) if socket_path is not None \
            else default_socket_path()
        self.connect_retries = max(0, connect_retries)
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.client_name = client_name if client_name is not None \
            else default_client_name()
        self.overload_retries = max(0, overload_retries)
        self._rng = random.Random(
            jitter_seed if jitter_seed is not None else os.getpid())
        self.server_info: dict[str, Any] = {}
        self._sock: socket.socket | None = None
        self._reader: Any = None

    def _backoff_delay(self, attempt: int, floor_s: float = 0.0) -> float:
        """Seeded-jitter exponential backoff: ``backoff_s * 2^attempt``
        scaled by a deterministic factor in [0.5, 1.0), floored at the
        server's ``retry_after_s`` hint."""
        delay = self.backoff_s * (2 ** attempt)
        delay *= 0.5 + 0.5 * self._rng.random()
        return max(delay, floor_s)

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        """Connect (with retry/backoff) and consume the hello frame."""
        if self._sock is not None:
            return self
        last: OSError | None = None
        for attempt in range(self.connect_retries + 1):
            if attempt > 0 and self.backoff_s > 0:
                # Jittered, not lockstep: N clients reconnecting to a
                # restarted server spread over the backoff window.
                time.sleep(self._backoff_delay(attempt - 1))
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(str(self.socket_path))
            except OSError as exc:
                last = exc
                sock.close()
                continue
            self._sock = sock
            self._reader = sock.makefile("rb")
            break
        else:
            raise ServiceUnavailable(
                f"cannot reach the sweep service at {self.socket_path} "
                f"after {self.connect_retries + 1} attempt(s): {last}")
        hello = self._read_frame()
        if hello.get("type") != "hello":
            self.close()
            raise ProtocolError(
                f"expected a hello frame, got {hello.get('type')!r}")
        if hello.get("v") != protocol.PROTOCOL_VERSION:
            self.close()
            raise ProtocolError(
                f"server speaks protocol v{hello.get('v')!r}, this "
                f"client speaks v{protocol.PROTOCOL_VERSION}")
        self.server_info = hello
        return self

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _write_frame(self, frame: dict[str, Any]) -> None:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(protocol.encode_frame(frame))
        except socket.timeout as exc:
            self.close()
            raise ServiceUnavailable(
                f"sweep service write timed out: {exc}") from None
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(
                f"lost the sweep service connection: {exc}") from None

    def _read_frame(self) -> dict[str, Any]:
        assert self._reader is not None
        try:
            line = self._reader.readline()
        except socket.timeout:
            self.close()
            raise ServiceUnavailable(
                f"sweep service went silent for {self.timeout_s}s"
            ) from None
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(
                f"lost the sweep service connection: {exc}") from None
        if not line:
            self.close()
            raise ServiceUnavailable(
                "the sweep service closed the connection (draining for "
                "shutdown, or crashed); its journaled jobs resume on "
                "the next server")
        return protocol.decode_frame(line)

    def _raise_error(self, frame: dict[str, Any]) -> None:
        code = str(frame.get("code", ""))
        message = str(frame.get("message", "request failed"))
        if code == "overloaded":
            def _num(key: str) -> float:
                try:
                    return float(frame.get(key, 0) or 0)
                except (TypeError, ValueError):
                    return 0.0
            raise ServiceOverloaded(
                message, queue_depth=int(_num("queue_depth")),
                max_queued=int(_num("max_queued")),
                retry_after_s=_num("retry_after_s"))
        if code == "unavailable":
            raise ServiceUnavailable(message)
        raise ProtocolError(f"{code}: {message}" if code else message)

    def _roundtrip(self, frame: dict[str, Any],
                   expect: str) -> dict[str, Any]:
        self._write_frame(frame)
        reply = self._read_frame()
        if reply.get("type") == "error":
            self._raise_error(reply)
        if reply.get("type") != expect:
            raise ProtocolError(
                f"expected a {expect!r} frame, got {reply.get('type')!r}")
        return reply

    # ------------------------------------------------------------------
    # the service API
    # ------------------------------------------------------------------
    def ping(self) -> float:
        """Round-trip latency to the server, in seconds."""
        t0 = time.perf_counter()
        self._roundtrip({"v": protocol.PROTOCOL_VERSION, "op": "ping"},
                        "pong")
        return time.perf_counter() - t0

    def status(self) -> dict[str, Any]:
        """Server + scheduler statistics (the ``status`` op)."""
        reply = self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "status"}, "status")
        stats = reply.get("stats")
        return dict(stats) if isinstance(stats, dict) else {}

    def health(self) -> dict[str, Any]:
        """Operational health snapshot (the ``health`` op): queue
        depth, in-flight executions, pool state, ledger lag, uptime."""
        reply = self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "health"}, "health")
        payload = reply.get("health")
        return dict(payload) if isinstance(payload, dict) else {}

    def jobs(self) -> list[dict[str, Any]]:
        """Every job the server knows, oldest first."""
        reply = self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "jobs"}, "jobs")
        raw = reply.get("jobs")
        return [dict(j) for j in raw] if isinstance(raw, list) else []

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job (idempotent on terminal jobs); returns its
        record."""
        reply = self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "cancel",
             "job_id": job_id}, "job")
        return dict(reply.get("job") or {})

    def shutdown(self) -> None:
        """Ask the server to drain and exit (the ``shutdown`` op)."""
        self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "shutdown"}, "ack")
        self.close()

    def submit(self, name: str, configs: list[ExperimentConfig], *,
               engine: str = "event", priority: str = "normal",
               deadline_s: float | None = None) -> dict[str, Any]:
        """Fire-and-forget submit; returns the queued job record."""
        reply = self._submit(name, configs, engine, priority, deadline_s,
                             watch=False)
        return dict(reply.get("job") or {})

    def watch(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Stream a job's events (replayed from the start, then live)
        through its ``done`` frame.  Yields the initial job snapshot
        first."""
        reply = self._roundtrip(
            {"v": protocol.PROTOCOL_VERSION, "op": "watch",
             "job_id": job_id}, "job")
        yield reply
        yield from self._stream()

    def wait(self, job_id: str) -> dict[str, Any]:
        """Block until a job finishes; returns its final record."""
        final: dict[str, Any] = {}
        for frame in self.watch(job_id):
            if frame.get("type") == "done":
                final = dict(frame.get("job") or {})
        return final

    def stream(self, name: str, configs: list[ExperimentConfig], *,
               engine: str = "event", priority: str = "normal",
               deadline_s: float | None = None
               ) -> Iterator[dict[str, Any]]:
        """Submit and stream: yields the job snapshot, then every
        ``row`` / ``row-error`` event as it completes, then ``done``."""
        yield self._submit(name, configs, engine, priority, deadline_s,
                           watch=True)
        yield from self._stream()

    def _submit(self, name: str, configs: list[ExperimentConfig],
                engine: str, priority: str, deadline_s: float | None, *,
                watch: bool) -> dict[str, Any]:
        return self._roundtrip(protocol.submit_frame(
            name, configs, engine, watch, priority=priority,
            deadline_s=deadline_s, client=self.client_name), "job")

    def _stream(self) -> Iterator[dict[str, Any]]:
        while True:
            frame = self._read_frame()
            if frame.get("type") == "heartbeat":
                # Liveness proof on a slow stream: the read itself
                # reset the socket timeout; nothing to surface.
                continue
            if frame.get("type") == "error":
                self._raise_error(frame)
            yield frame
            if frame.get("type") == "done":
                return

    # ------------------------------------------------------------------
    def run_sweep(self, name: str, configs: list[ExperimentConfig], *,
                  engine: str = "event", priority: str = "normal",
                  deadline_s: float | None = None,
                  fallback: str | None = None) -> SweepResult:
        """Run a sweep through the service; returns a
        :class:`~repro.core.runner.SweepResult` bit-identical to the
        direct :func:`~repro.core.runner.run_sweep` path.

        Per-config failures are captured into ``result.errors`` (the
        ``errors="capture"`` contract); a job-level failure — ``auto``
        cross-validation disagreement, cancellation from another client
        — raises :class:`~repro.errors.JobError` carrying the final job
        record.

        An ``overloaded`` rejection is absorbed with seeded-jitter
        exponential backoff up to ``overload_retries`` times.
        ``fallback="local"`` degrades gracefully instead of raising:
        when the server stays saturated (retries exhausted) or is
        unreachable, the sweep runs in-process — same engine, same
        capture semantics, bit-identical rows.
        """
        if fallback not in (None, "local"):
            raise ValueError(
                f"fallback must be None or 'local', got {fallback!r}")
        attempt = 0
        while True:
            try:
                return self._run_sweep_remote(
                    name, configs, engine=engine, priority=priority,
                    deadline_s=deadline_s)
            except ServiceOverloaded as exc:
                if attempt >= self.overload_retries:
                    if fallback == "local":
                        return self._run_sweep_local(
                            name, configs, engine=engine)
                    raise
                time.sleep(self._backoff_delay(
                    attempt, floor_s=exc.retry_after_s))
                attempt += 1
            except ServiceUnavailable:
                if fallback == "local":
                    return self._run_sweep_local(
                        name, configs, engine=engine)
                raise

    @staticmethod
    def _run_sweep_local(name: str, configs: list[ExperimentConfig], *,
                         engine: str) -> SweepResult:
        """The degraded path: in-process
        :func:`~repro.core.runner.run_sweep` with the service's capture
        semantics (deterministic simulation makes the rows
        bit-identical to the served ones).  The service never runs the
        advise gate, so neither does this path, whatever the process's
        advise mode."""
        from repro.core.runner import run_sweep as local_run_sweep

        return local_run_sweep(name, configs, engine=engine,
                               errors="capture", advise="off")

    def _run_sweep_remote(self, name: str,
                          configs: list[ExperimentConfig], *,
                          engine: str, priority: str,
                          deadline_s: float | None) -> SweepResult:
        rows_by_index: dict[int, Row] = {}
        errors_by_index: dict[int, SweepError] = {}
        final: dict[str, Any] = {}
        for frame in self.stream(name, configs, engine=engine,
                                 priority=priority,
                                 deadline_s=deadline_s):
            kind = frame.get("type")
            if kind == "row":
                index, row, _source = protocol.parse_row(frame)
                rows_by_index[index] = row
            elif kind == "row-error":
                index = int(frame.get("index", -1))
                if 0 <= index < len(configs):
                    errors_by_index[index] = SweepError(
                        config=configs[index],
                        error=str(frame.get("error", "Error")),
                        message=str(frame.get("message", "")))
            elif kind == "done":
                final = dict(frame.get("job") or {})
        state = str(final.get("state", ""))
        if state != "completed":
            raise JobError(
                f"service job {final.get('job_id', '?')} ended "
                f"{state or 'unknown'}: "
                f"{final.get('error') or 'no detail'}", job=final)
        result = SweepResult(name)
        for index in sorted(rows_by_index):
            result.add(rows_by_index[index])
        result.errors = [errors_by_index[i]
                         for i in sorted(errors_by_index)]
        return result
