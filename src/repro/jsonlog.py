"""Durable JSON-lines logs: one append, one tolerant read, one atomic
replace.

Every append-only store in the package — the result cache (rows,
failure strikes and lint/advise verdicts, the one file of a cache
directory), the service job ledger and each process's run log — is a
file of JSON objects, one per line, each carrying a
``"format"`` version.  This module owns the whole on-disk discipline so
the stores keep only their record semantics:

* :func:`encode` is the line encoding (sorted keys, compact
  separators), which the result cache's content digests hash too.
* :func:`append` writes one record as one ``O_APPEND`` ``os.write``.
  Concurrent appenders interleave whole lines, and a killed process
  leaves at most one torn line.
* :class:`Buffered` is the appender for logs that record many events
  per run (a process's run log, :mod:`repro.telemetry.runlog`): records
  wait in memory and go out as one ``O_APPEND`` write per flush, at most
  :data:`FLUSH_RECORDS` records or :data:`FLUSH_SECONDS` after the last
  flush.  A queued record may be *held* and updated in place until the
  flush that writes it (a run's counters fold their events that way).
  A killed process loses at most the unflushed tail.
* :func:`read` never raises on content.  A line that fails to decode as
  UTF-8, fails to parse, or is not a JSON object is *torn*: skipped and
  counted.  An object of another ``format`` is *foreign*: skipped, not
  counted.
* :func:`replace_file` swaps in a whole file atomically (temp sibling,
  ``os.replace``), so a reader sees the old file or the new one;
  :func:`rewrite` is that for a log (with ``fsync``).

The module is stdlib-only and imports nothing from the package, so the
telemetry layer can depend on it without depending on :mod:`repro.core`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

# The one line encoding every store has always written (sorted keys,
# compact separators).  Encoder and decoder are built once: every
# fresh completion is an append to the cache's log.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODE = json.JSONDecoder().decode


def _canonical_encoder() -> Callable[[Any], str]:
    """``_ENCODER.encode`` with its C encoder built once (``encode``
    builds one per call: about 30% of the time of encoding a config).
    The circular-reference check is off: records are trees."""
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:  # an interpreter without the C accelerator
        return _ENCODER.encode
    chunks = make(None, _ENCODER.default, json.encoder.encode_basestring_ascii,
                  None, ":", ",", True, False, True)
    return lambda obj: "".join(chunks(obj, 0))


#: ``encode(obj) -> str``: the line encoding of a record, and the
#: canonical JSON the content digests hash.
encode = _canonical_encoder()

_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND

#: A :class:`Buffered` log flushes once this many records are pending...
FLUSH_RECORDS = 256

#: ...or on the first record at least this many seconds after its last
#: flush, so a long run keeps a recent partial record on disk.
FLUSH_SECONDS = 1.0


def _lines(records: Iterable[dict[str, Any] | str]) -> bytes:
    # a str is a record its writer encoded already, as the encoder would
    return "".join((record if type(record) is str
                    else encode(record)) + "\n"
                   for record in records).encode()


def _append_bytes(path: Path, data: bytes) -> None:
    """One ``O_APPEND`` write of ``data``; parents are created only when
    the first open finds them missing."""
    try:
        fd = os.open(path, _APPEND, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def append(path: Path, record: dict[str, Any], *,
           fault_hook: Callable[[bytes], bytes | None] | None = None,
           ) -> None:
    """Append ``record`` to ``path`` as one line, creating parents.

    ``fault_hook`` is the chaos-harness seam: it sees the encoded line
    and may return a mutated (e.g. torn) one, or raise to emulate the
    process dying mid-append.  ``None`` writes the line unchanged.
    """
    data = _lines((record,))
    if fault_hook is not None:
        mutated = fault_hook(data)
        if mutated is not None:
            data = mutated
    _append_bytes(path, data)


class Buffered:
    """An append-only log whose records are written in batches.

    :meth:`add` queues a record and flushes when :data:`FLUSH_RECORDS`
    are pending or :data:`FLUSH_SECONDS` have passed since the last
    flush; :meth:`flush` writes everything pending as one ``O_APPEND``
    write, encoded exactly as :func:`append` encodes it.  A record may
    also be queued as its line, already encoded that way (a run log
    writes a config record around the text its digest hashed).  Records
    may be added from several threads: a flush takes the records
    pending when it starts and leaves later ones queued.

    A record queued with :meth:`hold` stays in :attr:`held` under its
    writer's key until the flush that writes it, and its writer may
    update it in place till then.  Holding, and every update of a held
    record, happens under :attr:`lock`, which the flush takes too: an
    update lands in the batch that writes the record or finds it gone.
    """

    __slots__ = ("path", "lock", "held", "_pending", "_flushed_at")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.lock = threading.Lock()
        #: Queued records their writers still update, by writer's key.
        self.held: dict[Any, dict[str, Any]] = {}
        self._pending: list[dict[str, Any] | str] = []
        self._flushed_at = time.monotonic()

    def add(self, record: dict[str, Any] | str) -> None:
        self._pending.append(record)
        self.due()

    def hold(self, key: Any, record: dict[str, Any]) -> None:
        """Queue ``record`` and hold it under ``key``; call with
        :attr:`lock` held, and :meth:`due` after releasing it."""
        self.held[key] = record
        self._pending.append(record)

    def due(self) -> None:
        """Flush if either bound is reached."""
        if len(self._pending) >= FLUSH_RECORDS \
                or time.monotonic() - self._flushed_at >= FLUSH_SECONDS:
            self.flush()

    def flush(self) -> None:
        """Write every pending record (no write when none is)."""
        with self.lock:
            self._flushed_at = time.monotonic()
            self.held.clear()
            pending = self._pending
            n = len(pending)
            if not n:
                return
            batch = pending[:n]
            del pending[:n]
            _append_bytes(self.path, _lines(batch))


def read(path: str | Path, fmt: int) -> tuple[list[dict[str, Any]], int]:
    """``(records of format fmt, torn line count)``, in file order.

    An unreadable or missing file is empty.  Lines are decoded one at a
    time, so a line torn inside a multibyte UTF-8 sequence costs only
    that line; streaming them keeps no copy of the whole file alive
    beside the records.
    """
    records: list[dict[str, Any]] = []
    torn = 0
    try:
        fh = open(path, "rb")
    except OSError:
        return records, torn
    with fh:
        for line in fh:
            try:
                record = _DECODE(line.decode())
            except ValueError:  # UnicodeDecodeError is a ValueError too
                if line.strip():
                    torn += 1
                continue
            if not isinstance(record, dict):
                torn += 1
            elif record.get("format") == fmt:
                records.append(record)
    return records, torn


def replace_file(path: Path, data: bytes, *, durable: bool = False) -> None:
    """Atomically replace ``path`` with ``data``.

    The bytes go to a temp sibling named for this process and thread
    (so concurrent writers of one path never share a temp file), then
    ``os.replace`` swaps it in; on any error the temp file is removed.
    ``durable=True`` also calls ``fsync`` on the data before the swap.
    """
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, data)
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def rewrite(path: Path, records: Iterable[dict[str, Any]]) -> None:
    """Atomically and durably replace ``path`` with ``records``, one
    line each, encoded exactly as :func:`append` encodes them."""
    replace_file(path, _lines(records), durable=True)
