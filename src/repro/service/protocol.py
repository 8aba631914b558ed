"""Wire protocol for the sweep service: newline-delimited JSON frames.

Both directions speak the same framing: one JSON object per line
(``\\n``-terminated, UTF-8), small enough to be read with a buffered
line reader and torn-tolerant in the same spirit as the cache/journal
files — a malformed line is a :class:`~repro.errors.ProtocolError`
naming what was wrong, never a hang.

**Requests** (client → server) carry ``op``::

    {"v": 1, "op": "submit", "name": "f1", "engine": "event",
     "watch": true, "configs": [{...}, ...]}
    {"v": 1, "op": "watch",  "job_id": "..."}
    {"v": 1, "op": "jobs"}
    {"v": 1, "op": "status"}
    {"v": 1, "op": "cancel", "job_id": "..."}
    {"v": 1, "op": "ping"}
    {"v": 1, "op": "health"}
    {"v": 1, "op": "shutdown"}

A ``submit`` may additionally carry the fleet-scheduling fields
``priority`` (``low`` | ``normal`` | ``high``), ``deadline_s`` (float
seconds of wall-clock budget), and ``client`` (the submitter identity
fair-share is computed across); all optional and backward compatible.

**Responses** (server → client) carry ``type``:

* ``hello`` — sent once per connection before any request is read
  (protocol/package version, server pid);
* ``job`` — a job-record snapshot (after submit/cancel);
* ``row`` — one completed row: submission ``index``, the row payload,
  and its ``source`` (``executed`` | ``dedup`` | ``cache``);
* ``row-error`` — one failed config: ``index``, error class, message,
  and whether it was ``quarantined`` without an attempt;
* ``done`` — terminal frame of a stream, with the final job record;
* ``heartbeat`` — a keep-alive on an otherwise-silent stream (no rows
  completed for a while); clients swallow it and reset their read
  timeout, so "slow job" and "dead server" are distinguishable;
* ``jobs`` / ``status`` / ``health`` / ``pong`` / ``ack`` — query
  answers;
* ``error`` — a request-level failure (``code`` + ``message``, plus
  typed extras such as ``queue_depth`` on an ``overloaded``
  rejection); the connection stays usable unless the transport itself
  broke.

A submit's fields are the encoding of a
:class:`~repro.service.jobs.JobSpec`, the same one the job ledger
stores, and config and row payloads reuse the persistence schema
(:func:`repro.core.persistence.config_to_dict` /
:func:`~repro.core.persistence.row_to_dict`), so a job spec is exactly
the manifest vocabulary and floats survive the JSON round-trip
bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Any

from repro import jsonlog
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import row_from_dict, row_to_dict
from repro.core.runner import Row
from repro.errors import ConfigurationError, ProtocolError
from repro.service.jobs import JobSpec

#: Wire protocol version; bump on breaking frame changes.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (a 48-point sweep submit is ~20 kB; this is
#: a safety valve against a garbage peer, not a practical limit).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Request operations the server understands.
OPS = ("submit", "watch", "jobs", "status", "cancel", "ping", "health",
       "shutdown")


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline):
    the bytes ``json.dumps(frame, sort_keys=True, separators=(",",
    ":"))`` gives, from the encoder every store shares
    (:func:`repro.jsonlog.encode`, which skips the circular-reference
    check: frames are trees)."""
    data = jsonlog.encode(frame).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return data


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on oversized, non-JSON, or non-object
    payloads — the caller decides whether that kills the connection.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from None
    else:
        text = line
    text = text.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = json.loads(text)
    except ValueError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def check_request(frame: dict[str, Any]) -> str:
    """Validate a request frame; returns its ``op``.

    Checks the protocol version and the op vocabulary, so a client from
    a future incompatible release gets a clear refusal instead of
    undefined behavior.
    """
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = frame.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return str(op)


def hello_frame(server_version: str, pid: int) -> dict[str, Any]:
    """The per-connection greeting the server sends before reading."""
    return {"type": "hello", "v": PROTOCOL_VERSION,
            "server": "repro-service", "version": server_version,
            "pid": pid}


def error_frame(code: str, message: str,
                **extra: Any) -> dict[str, Any]:
    """A request-level failure (the connection stays open).

    ``extra`` keys ride along verbatim — e.g. an ``overloaded``
    rejection carries ``queue_depth``/``max_queued``/``retry_after_s``
    so the client's backoff can honor the server's hint.
    """
    frame = {"type": "error", "code": code, "message": message}
    frame.update(extra)
    return frame


def heartbeat_frame() -> dict[str, Any]:
    """A keep-alive on a silent stream (no payload beyond the type)."""
    return {"type": "heartbeat"}


def submit_frame(name: str, configs: list[ExperimentConfig], engine: str,
                 watch: bool = True, *, priority: str = "normal",
                 deadline_s: float | None = None,
                 client: str = "") -> dict[str, Any]:
    """Build a ``submit`` request from live config objects: the job
    spec's encoding plus ``v``, ``op`` and ``watch``.  The server's
    :func:`parse_submit` is the one gate on the values."""
    spec = JobSpec(name=name, engine=engine, configs=tuple(configs),
                   priority=priority, deadline_s=deadline_s, client=client)
    return {"v": PROTOCOL_VERSION, "op": "submit", "watch": bool(watch),
            **spec.to_dict()}


def parse_submit(frame: dict[str, Any]) -> tuple[JobSpec, bool]:
    """Decode a ``submit`` request into its job spec (without id or
    submission time, which the server assigns) and its ``watch`` flag.

    :meth:`JobSpec.from_dict <repro.service.jobs.JobSpec.from_dict>` is
    the decoder, the same one ledger replay uses, so a spec the wire
    refuses is never replayed either.
    """
    return JobSpec.from_dict(frame), bool(frame.get("watch", True))


def row_frame(index: int, row: Row, source: str) -> dict[str, Any]:
    """One completed row, tagged with its submission index and where it
    came from (``executed`` / ``dedup`` / ``cache``)."""
    return {"type": "row", "index": index, "source": source,
            "row": row_to_dict(row)}


def row_error_frame(index: int, error: str, message: str,
                    quarantined: bool = False) -> dict[str, Any]:
    """One failed config, tagged with its submission index."""
    return {"type": "row-error", "index": index, "error": error,
            "message": message, "quarantined": bool(quarantined)}


def parse_row(frame: dict[str, Any]) -> tuple[int, Row, str]:
    """Decode a ``row`` event into ``(index, row, source)``."""
    try:
        index = int(frame["index"])
        row = row_from_dict(frame["row"])
        source = str(frame.get("source", "executed"))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ProtocolError(f"malformed row frame: {exc}") from None
    return index, row, source
