"""Append-only sweep journal: the bookkeeping behind ``--resume``.

Completed *rows* survive a killed sweep through the persistent
:class:`~repro.core.cache.ResultCache` (each row is checkpointed the
moment it completes).  What the cache cannot remember is *failure*: a
config that raised has no row, so a naive restart would re-run it —
forever, if the failure is deterministic.  The journal closes that gap.

Every fresh completion of a sweep appends one JSONL record::

    {"format": 1, "sweep": "f1", "key": "<config digest>",
     "status": "done" | "failed", "error": "...", "message": "...",
     "pid": 1234}

keyed by the same content digest the result cache uses.  On
``run_sweep(..., resume=True)`` the journal's failure counts decide
which configs are **quarantined** — recorded straight into
``SweepResult.errors`` without burning another attempt.  A later
success clears a config's strike count, so transient failures (a
worker OOM-killed once) do not poison the config forever.

A write never reads: :meth:`SweepJournal.record` only appends, so a
sweep that does not resume costs one append per completion however long
the file grows.  The file is read on the first quarantine query
(:meth:`~SweepJournal.status`, ``failures``, ``quarantined``), and the
reader sees it as it is at that moment: its own earlier appends and
those of other processes included.  Records written after that are
applied to the loaded state as they are appended.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro import jsonlog, telemetry
from repro.core.cache import config_digest
from repro.core.experiment import ExperimentConfig

#: On-disk journal record format version.
JOURNAL_FORMAT = 1


def _fresh_entry() -> dict[str, Any]:
    return {"fails": 0, "done": False, "error": "", "message": "",
            "pid": None}


class SweepJournal:
    """Progress log for one cache directory, shared by all sweeps in it."""

    FILENAME = "sweep-journal.jsonl"

    __slots__ = ("path", "torn_lines", "_state", "_loaded")

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.torn_lines = 0
        #: (sweep name, config digest) -> aggregated status
        self._state: dict[tuple[str, str], dict[str, Any]] = {}
        self._loaded = False

    @classmethod
    def for_cache(cls, cache) -> "SweepJournal | None":
        """The journal living beside a persistent cache's JSONL file.

        Returns ``None`` for non-persistent caches (plain dicts have no
        directory, so there is nothing durable to journal against).
        """
        directory = getattr(cache, "directory", None)
        if directory is None:
            return None
        return cls(Path(directory) / cls.FILENAME)

    # ------------------------------------------------------------------
    def _load(self) -> None:
        self._loaded = True
        records, torn = jsonlog.read(self.path, JOURNAL_FORMAT)
        for rec in records:
            status = rec.get("status")
            if status not in ("done", "failed") \
                    or "sweep" not in rec or "key" not in rec:
                torn += 1
                continue
            self._apply((str(rec["sweep"]), str(rec["key"])), status, rec)
        if torn:
            self.torn_lines += torn
            telemetry.count("journal.torn_lines", torn)

    def _apply(self, key: tuple[str, str], status: str, rec: dict) -> None:
        entry = self._state.setdefault(key, _fresh_entry())
        if status == "done":
            entry["done"] = True
            entry["fails"] = 0  # success clears the strike count
        else:
            entry["done"] = False
            entry["fails"] += 1
            entry["error"] = str(rec.get("error", ""))
            entry["message"] = str(rec.get("message", ""))
            entry["pid"] = rec.get("pid")

    # ------------------------------------------------------------------
    def status(self, sweep: str, config: ExperimentConfig) -> dict | None:
        """Aggregated journal state for one config, or ``None`` if the
        config was never journaled (keys: done, fails, error, message,
        pid)."""
        if not self._loaded:
            self._load()
        entry = self._state.get((sweep, config_digest(config)))
        return dict(entry) if entry is not None else None

    def failures(self, sweep: str, config: ExperimentConfig) -> int:
        """Consecutive failure count for a config (0 if unknown/done)."""
        entry = self.status(sweep, config)
        return 0 if entry is None else int(entry["fails"])

    def quarantined(self, sweep: str, config: ExperimentConfig,
                    threshold: int) -> dict | None:
        """The journal entry if ``config`` has failed ``threshold``+
        consecutive times for ``sweep`` (the quarantine predicate shared
        by ``run_sweep(..., resume=True)`` and the sweep service), else
        ``None``."""
        entry = self.status(sweep, config)
        if entry is not None and int(entry["fails"]) >= threshold:
            return entry
        return None

    def record(self, sweep: str, config: ExperimentConfig, ok: bool,
               exc: BaseException | None = None) -> None:
        """Journal one fresh completion (called as each config finishes).

        Appends only; the state is updated too once a query loaded it."""
        digest = config_digest(config)
        rec: dict[str, Any] = {
            "format": JOURNAL_FORMAT,
            "sweep": sweep,
            "key": digest,
            "status": "done" if ok else "failed",
        }
        if not ok:
            rec["error"] = type(exc).__name__ if exc is not None else ""
            rec["message"] = str(exc) if exc is not None else ""
            pid = getattr(exc, "_repro_pid", None)
            if pid is not None:
                rec["pid"] = pid
        telemetry.count("journal.done" if ok else "journal.failed")
        if self._loaded:
            self._apply((sweep, digest), rec["status"], rec)
        jsonlog.append(self.path, rec)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<SweepJournal {self.path} entries={len(self._state)}>"
