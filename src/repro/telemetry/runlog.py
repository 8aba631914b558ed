"""The run log: each recorded run is records in one append-only JSONL
log per process — the one module that knows this layout.

A process appends to ``<results>/runs/<session>.jsonl`` (session =
timestamp, pid, random tail), named at the first run it records, again
when the pid changes, and again when it resumes a run.  A record is its
payload's fields plus ``"format": 1`` and one tag naming both its kind
and its run, ``<kind>: <run id>``; the kinds are ``manifest`` (all
fields but the closing ones when the run opens, the fields that changed
when it finalizes), ``metric``, ``span`` and ``summary`` (the
:func:`repro.core.persistence.save_sweep` payload).

:func:`scan` reads the logs in name order and their records in file
order.  A run's records sit in one log unless it was resumed, and a
resume starts a new log, so this order is the order they were written
in.  An opening manifest (one naming ``run_id``) replaces the run's
manifest and a closing one updates it; the last summary wins.  Per-run
directories of the old layout (``<run_id>/manifest.json``,
``metrics.jsonl``, ``spans.jsonl``, ``summary.json``) are ignored.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro import jsonlog
from repro.errors import ConfigurationError
from repro.telemetry.manifest import check_manifest

#: Format version of every run log record.
LOG_FORMAT = 1

#: The record kinds: each record names its run under one of these.
KINDS = ("manifest", "metric", "span", "summary")

#: (runs root, pid) -> that process's log.
_logs: dict[tuple[Path, int], jsonlog.Buffered] = {}


def process_log(root: Path, *, renew: bool = False) -> jsonlog.Buffered:
    """This process's log under ``root``, named on first use; ``renew``
    names a new one (a resumed run's records then sort after the logs
    that hold its earlier records)."""
    key = (root, os.getpid())
    log = _logs.get(key)
    if log is None or renew:
        now = time.time_ns()
        session = (time.strftime("%Y%m%d-%H%M%S", time.localtime(now // 10**9))
                   + f".{now // 1000 % 1_000_000:06d}-{key[1]}-"
                   f"{uuid.uuid4().hex[:6]}")
        log = _logs[key] = jsonlog.Buffered(root / f"{session}.jsonl")
    return log


def record(run_id: str, kind: str, payload: dict[str, Any]
           ) -> dict[str, Any]:
    """One log record of run ``run_id``; ``payload`` names no kind."""
    return {**payload, "format": LOG_FORMAT, kind: run_id}


@dataclass
class RunRecords:
    """Everything the logs under one runs root hold about one run."""

    run_id: str
    manifest: dict[str, Any] = field(default_factory=dict)
    metrics: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] | None = None
    files: list[Path] = field(default_factory=list)
    #: Torn lines and malformed records of :attr:`files`.
    torn_lines: int = 0

    def checked_manifest(self) -> dict[str, Any]:
        """The merged manifest, after the format and field checks."""
        return check_manifest(self.manifest, f"run {self.run_id}")

    def rows(self) -> list[Any]:
        """The summary's rows, after the schema checks (none without)."""
        from repro.core.persistence import sweep_from_payload

        return [] if self.summary is None else list(sweep_from_payload(
            self.summary, f"run {self.run_id} summary").rows)


def scan(root: Path) -> dict[str, RunRecords]:
    """Every run recorded under ``root``, keyed by run id."""
    runs: dict[str, RunRecords] = {}
    for path in sorted(root.glob("*.jsonl")):
        records, file_torn = jsonlog.read(path, LOG_FORMAT)
        held: dict[str, RunRecords] = {}
        for rec in records:
            kinds = [kind for kind in KINDS if kind in rec]
            if len(kinds) != 1 or not isinstance(rec[kinds[0]], str):
                # a malformed record counts as a torn line of its file
                file_torn += 1
                continue
            kind = kinds[0]
            run_id = rec.pop(kind)
            run = held.get(run_id)
            if run is None:
                run = held[run_id] = runs.setdefault(run_id,
                                                     RunRecords(run_id))
                run.files.append(path)
            if kind == "summary":
                run.summary = rec
            elif kind == "manifest":  # an opening one names run_id
                run.manifest = rec if "run_id" in rec \
                    else {**run.manifest, **rec}
            else:
                (run.metrics if kind == "metric" else run.spans).append(rec)
        for run in held.values():
            run.torn_lines += file_torn
    return runs


def manifests(root: Path) -> Iterator[dict[str, Any]]:
    """The checked manifest of every run under ``root`` whose manifest
    passes its checks."""
    for run in scan(root).values():
        try:
            yield run.checked_manifest()
        except ConfigurationError:
            continue


def find(root: Path, run_id: str) -> RunRecords:
    """Resolve a run id (or unique prefix) to its records."""
    runs = scan(root)
    matches = [run_id] if run_id in runs else \
        sorted(rid for rid in runs if rid.startswith(run_id))
    if len(matches) == 1:
        return runs[matches[0]]
    if matches:
        raise ConfigurationError(
            f"run id prefix {run_id!r} is ambiguous: {', '.join(matches)}")
    raise ConfigurationError(
        f"no recorded run {run_id!r} under {root} "
        f"(try `repro runs` to list them)")
