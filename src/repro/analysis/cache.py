"""Persistent lint-result cache, living next to the sweep result cache.

Analysis verdicts are keyed exactly like simulated rows: config digest x
model fingerprint (:mod:`repro.core.cache`).  A ``lint.jsonl`` file sits
beside ``results.jsonl`` in the same cache directory, so one
``--cache-dir`` governs both, and any model change invalidates both at
once through the shared fingerprint.

Records additionally carry the **analyzer fingerprint**
(:func:`repro.analysis.rules.analyzer_fingerprint`) — a digest of the
rule catalog plus a behaviour version.  A model change invalidates
verdicts because the *subject* changed; an analyzer upgrade invalidates
them because the *checks* changed.  Without the second tag, a cache
written by an older analyzer would keep serving "clean" verdicts that a
newer check would reject.

Verdicts are tiny (usually ``[]``), so the in-memory layer is a plain
dict loaded once per process; :func:`lint_cache_for` memoizes one
instance per directory so repeated ``repro lint`` / ``repro advise``
passes and advise gates share a single load.
"""

from __future__ import annotations

from pathlib import Path

from repro import jsonlog, telemetry
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.rules import analyzer_fingerprint
from repro.core.cache import CACHE_FORMAT, default_cache_dir, \
    model_fingerprint


class LintCache:
    """Config-digest-addressed store of :class:`DiagnosticReport`."""

    __slots__ = ("directory", "torn_lines", "_mem", "_loaded",
                 "_fingerprint")

    FILENAME = "lint.jsonl"

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.torn_lines = 0
        self._mem: dict[str, DiagnosticReport] = {}
        self._loaded = False
        self._fingerprint: str | None = None

    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint()
        return self._fingerprint

    # ------------------------------------------------------------------
    def _load(self) -> None:
        self._loaded = True
        fp = self.fingerprint
        afp = analyzer_fingerprint()
        records, torn = jsonlog.read(self.path, CACHE_FORMAT)
        for rec in records:
            if rec.get("fp") != fp or rec.get("analyzer") != afp:
                continue    # stale model or stale analyzer: re-analyze
            try:
                self._mem[str(rec["key"])] = \
                    DiagnosticReport.from_dict(rec["report"])
            except (ValueError, KeyError, TypeError):
                torn += 1
        if torn:
            self.torn_lines += torn
            telemetry.count("lint.torn_lines", torn)

    def get(self, digest: str) -> DiagnosticReport | None:
        if not self._loaded:
            self._load()
        return self._mem.get(digest)

    def put(self, digest: str, report: DiagnosticReport) -> None:
        if not self._loaded:
            self._load()
        if digest in self._mem:
            self._mem[digest] = report
            return
        self._mem[digest] = report
        jsonlog.append(self.path, {"format": CACHE_FORMAT,
                                   "fp": self.fingerprint,
                                   "analyzer": analyzer_fingerprint(),
                                   "key": digest,
                                   "report": report.to_dict()})

    def __len__(self) -> int:
        if not self._loaded:
            self._load()
        return len(self._mem)

    def clear(self) -> None:
        self._mem.clear()
        self._loaded = True
        try:
            self.path.unlink()
        except OSError:
            pass


_instances: dict[Path, LintCache] = {}


def lint_cache_for(directory: str | Path | None) -> LintCache:
    """One shared :class:`LintCache` per directory (load the file once)."""
    path = Path(directory) if directory is not None else default_cache_dir()
    cache = _instances.get(path)
    if cache is None:
        cache = _instances[path] = LintCache(path)
    return cache
