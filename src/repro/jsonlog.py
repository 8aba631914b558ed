"""Durable JSON-lines logs: one append, one tolerant read, one rewrite.

Every append-only store in the package — the result cache, the sweep
journal, the lint cache, the service job ledger and a run's metrics and
spans — is a file of JSON objects, one per line, each carrying a
``"format"`` version.  This module owns the whole on-disk discipline so
the stores keep only their record semantics:

* :func:`append` writes one record as one ``O_APPEND`` ``os.write``.
  Concurrent appenders interleave whole lines, and a killed process
  leaves at most one torn line.
* :func:`read` never raises on content.  A line that fails to decode as
  UTF-8, fails to parse, or is not a JSON object is *torn*: skipped and
  counted.  An object of another ``format`` is *foreign*: skipped, not
  counted.
* :func:`rewrite` replaces the file atomically (temp sibling, ``fsync``,
  ``os.replace``), so a reader sees the old file or the new one.

The module is stdlib-only and imports nothing from the package, so the
telemetry layer can depend on it without depending on :mod:`repro.core`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable

# The one line encoding every store has always written (sorted keys,
# compact separators).  Encoder and decoder are built once: every
# telemetry counter is an append, and every sweep re-reads its journal.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODE = json.JSONDecoder().decode


def append(path: Path, record: dict[str, Any], *,
           fault_hook: Callable[[bytes], bytes | None] | None = None,
           ) -> None:
    """Append ``record`` to ``path`` as one line, creating parents.

    ``fault_hook`` is the chaos-harness seam: it sees the encoded line
    and may return a mutated (e.g. torn) one, or raise to emulate the
    process dying mid-append.  ``None`` writes the line unchanged.
    """
    data = (_ENCODER.encode(record) + "\n").encode()
    if fault_hook is not None:
        mutated = fault_hook(data)
        if mutated is not None:
            data = mutated
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


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


def rewrite(path: Path, records: Iterable[dict[str, Any]]) -> None:
    """Atomically replace ``path`` with ``records``, one line each,
    encoded exactly as :func:`append` encodes them."""
    body = "".join(_ENCODER.encode(record) + "\n" for record in records)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, body.encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
