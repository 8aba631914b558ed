"""The run log: each recorded run is records in one append-only JSONL
log per process — the one module that knows this layout.

A process appends to ``<results>/runs/<session>.jsonl`` (session =
timestamp, pid, random tail), named at the first run it records, again
when the pid changes, and again when it resumes a run.  A record is its
payload's fields plus ``"format": 1`` and one tag naming its kind and
what it belongs to, ``<kind>: <id>``.  Run records name their run:
``manifest`` (all fields but the closing ones when the run opens, the
fields that changed when it finalizes), ``metric`` (one per counter
name per flush of the log, one per gauge or histogram event: see
:mod:`repro.telemetry.metrics`), ``span`` and ``summary``.  A summary
of :data:`SUMMARY_SCHEMA` holds its rows compact, each the list
``[config digest, engine, elapsed, gflops, dram_gbytes_per_s,
comm_fraction]`` (:data:`ROW_FIELDS`).  Two kinds are content records
of the log, written before the first run record that needs them and in
the same flush: ``config`` (tag: the
:func:`~repro.core.cache.config_digest`; ``snapshot``: the config),
once per digest per log, and ``session`` (tag: the log's session; the
:func:`~repro.telemetry.manifest.session_fields`), again only when
those change.

:func:`scan` reads the logs in name order and their records in file
order.  A run's records sit in one log unless it was resumed, and a
resume starts a new log, so this order is the order they were written
in.  An opening manifest (one naming ``run_id``) takes the fields of
its log's latest session record and replaces the run's manifest, and a
closing one updates it; the last summary wins, and reads as the
:func:`repro.core.persistence.save_sweep` payload, its rows expanded
to dicts.  Digests in manifests and summaries resolve through every
``config`` record under the root.

Logs of older formats read unchanged: summaries of schema 1 (each row
a dict naming its config by digest or holding it inline), a metric
record per counter event, and logs from before the content records
(configs inline, every field in each manifest, the ``run.opened``,
``run.wall_seconds``, ``sweep.rows`` and ``sweep.errors`` metrics
recorded); in a log with a session record, those four metrics are
rebuilt from the manifests, and so is ``sweep.rows_per_s`` (``n_rows /
wall_seconds`` of each closing manifest) for a run whose log does not
record it.  Per-run directories of the old layout
(``<run_id>/manifest.json``, ``metrics.jsonl``, ``spans.jsonl``,
``summary.json``) are ignored.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro import jsonlog
from repro.errors import ConfigurationError
from repro.telemetry.manifest import check_manifest, unresolved

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.experiment import ExperimentConfig

#: Format version of every run log record.
LOG_FORMAT = 1

#: The record kinds: each record names what it belongs to under one.
KINDS = ("manifest", "metric", "span", "summary", "config", "session")

#: Schema of a summary record with compact rows; its rows hold
#: :data:`ROW_FIELDS` in this order.
SUMMARY_SCHEMA = 2
ROW_FIELDS = ("config", "engine", "elapsed", "gflops", "dram_gbytes_per_s",
              "comm_fraction")

#: A log forgets which configs it holds past this many (a long-lived
#: service scores without bound); it then writes some of them again,
#: which readers take as the same config.
CONFIGS_HELD_MAX = 65536

#: (runs root, pid) -> that process's log.
_logs: dict[tuple[Path, int], "RunLog"] = {}


class RunLog(jsonlog.Buffered):
    """A process's run log, which knows the content records it holds:
    each config's digest, and the last session fields."""

    __slots__ = ("_configs", "_session")

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self._configs: set[str] = set()
        self._session: dict[str, Any] | None = None

    def add_session(self, fields: dict[str, Any]) -> None:
        """Queue a ``session`` record unless the last one holds
        ``fields``."""
        if fields != self._session:
            self._session = fields
            self.add(record(self.path.stem, "session", fields))

    def add_config(self, config: "ExperimentConfig", digest: str,
                   text: str | None = None) -> str:
        """Queue ``config``'s record unless this log holds ``digest``,
        from ``text``, its canonical JSON, when the caller has it;
        returns ``digest``."""
        if digest not in self._configs:
            if text is None:
                from repro.core.cache import config_text

                text = config_text(config)
            if len(self._configs) >= CONFIGS_HELD_MAX:
                self._configs.clear()
            self._configs.add(digest)
            self.add(f'{{"config":"{digest}","format":{LOG_FORMAT},'
                     f'"snapshot":{text}}}')
        return digest


def process_log(root: Path, *, renew: bool = False) -> RunLog:
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
        log = _logs[key] = RunLog(root / f"{session}.jsonl")
    return log


def record(tag: str, kind: str, payload: dict[str, Any]
           ) -> dict[str, Any]:
    """One log record of kind ``kind`` belonging to ``tag`` (a run id,
    for the run records); ``payload`` names no kind."""
    return {**payload, "format": LOG_FORMAT, kind: tag}


def summary_record(run_id: str, name: str, rows: list[Any],
                   digests: list[str]) -> dict[str, Any]:
    """Run ``run_id``'s ``summary`` record of sweep ``name``: its rows,
    compact, each naming its config by the digest at its position in
    ``digests``."""
    return {"schema": SUMMARY_SCHEMA, "name": name,
            "rows": [[digest, row.engine, row.elapsed, row.gflops,
                      row.dram_gbytes_per_s, row.comm_fraction]
                     for digest, row in zip(digests, rows)],
            "format": LOG_FORMAT, "summary": run_id}


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

        if self.summary is None:
            return []
        where = f"run {self.run_id} summary"
        rows = self.summary.get("rows")
        missing = isinstance(rows, list) and unresolved(
            [row.get("config") for row in rows if isinstance(row, dict)])
        if missing:
            raise ConfigurationError(
                f"{where}: config {missing} is not in the run log")
        return list(sweep_from_payload(self.summary, where).rows)


def _metric(name: str, kind: str, value: Any) -> dict[str, Any]:
    return {"name": name, "kind": kind, "v": value}


def _rows_per_s(run: RunRecords, closing: dict[str, Any]) -> float | None:
    """The ``sweep.rows_per_s`` gauge a closing manifest implies, unless
    the run's log recorded that gauge itself (logs written before it was
    rebuilt) or the run took no measurable time."""
    if any(m.get("name") == "sweep.rows_per_s" for m in run.metrics):
        return None
    rows, wall = closing.get("n_rows"), closing.get("wall_seconds")
    if isinstance(rows, (int, float)) and isinstance(wall, (int, float)) \
            and wall > 0:
        return rows / wall
    return None


def scan(root: Path) -> dict[str, RunRecords]:
    """Every run recorded under ``root``, keyed by run id."""
    runs: dict[str, RunRecords] = {}
    configs: dict[str, Any] = {}
    for path in sorted(root.glob("*.jsonl")):
        records, file_torn = jsonlog.read(path, LOG_FORMAT)
        held: dict[str, RunRecords] = {}
        session: dict[str, Any] | None = None
        for rec in records:
            kinds = [kind for kind in KINDS if kind in rec]
            if len(kinds) != 1 or not isinstance(rec[kinds[0]], str):
                # a malformed record counts as a torn line of its file
                file_torn += 1
                continue
            kind = kinds[0]
            tag = rec.pop(kind)
            if kind == "config":
                if isinstance(rec.get("snapshot"), dict):
                    configs[tag] = rec["snapshot"]
                else:
                    file_torn += 1
                continue
            if kind == "session":
                session = rec
                continue
            run = held.get(tag)
            if run is None:
                run = held[tag] = runs.setdefault(tag, RunRecords(tag))
                run.files.append(path)
            if kind == "summary":
                run.summary = rec
            elif kind == "manifest" and "run_id" in rec:  # an opening one
                run.manifest = rec if session is None \
                    else {**session, **rec}
                if session is not None:
                    run.metrics.append(_metric("run.opened", "counter", 1))
            elif kind == "manifest":
                run.manifest = {**run.manifest, **rec}
                if session is not None and "wall_seconds" in rec:
                    run.metrics += [
                        _metric(name, "gauge", rec.get(field))
                        for name, field in (("run.wall_seconds",
                                             "wall_seconds"),
                                            ("sweep.rows", "n_rows"),
                                            ("sweep.errors", "n_errors"))]
                    rate = _rows_per_s(run, rec)
                    if rate is not None:
                        run.metrics.append(
                            _metric("sweep.rows_per_s", "gauge", rate))
            else:
                (run.metrics if kind == "metric" else run.spans).append(rec)
        for run in held.values():
            run.torn_lines += file_torn
    for run in runs.values():
        _resolve(run, configs)
    return runs


def _resolve(run: RunRecords, configs: dict[str, Any]) -> None:
    """Put the configs a run's manifest and summary name by digest in
    place, and expand compact summary rows to dicts (a malformed one to
    an empty dict, which fails the row checks); a digest no ``config``
    record holds stays, for the checks."""
    refs = run.manifest.get("configs")
    if isinstance(refs, list):
        run.manifest["configs"] = [
            configs.get(ref, ref) if isinstance(ref, str) else ref
            for ref in refs]
    summary = run.summary
    rows = summary.get("rows") if summary is not None else None
    if summary is not None and summary.get("schema") == SUMMARY_SCHEMA \
            and isinstance(rows, list):
        from repro.core.persistence import SCHEMA_VERSION

        summary["schema"] = SCHEMA_VERSION
        summary["rows"] = rows = [
            dict(zip(ROW_FIELDS, row))
            if isinstance(row, list) and len(row) == len(ROW_FIELDS)
            else {} for row in rows]
    for row in rows if isinstance(rows, list) else ():
        ref = row.get("config") if isinstance(row, dict) else None
        if isinstance(ref, str):
            row["config"] = configs.get(ref, ref)


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
