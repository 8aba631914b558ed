"""Persistent, content-addressed result cache for sweep rows.

Every simulated :class:`~repro.core.runner.Row` is cached under a key with
two components:

* the **config digest** — a SHA-256 over the canonical JSON form of the
  :class:`~repro.core.experiment.ExperimentConfig`
  (:func:`repro.core.persistence.config_to_dict` with sorted keys), so the
  key is stable across processes and Python versions;
* the **model fingerprint** — a digest of the package version, the full
  processor catalog, the compiler presets, and every miniapp's kernel
  parameters.  Any change to the simulator's inputs changes the
  fingerprint, so stale rows self-invalidate instead of silently serving
  results from an older model.

Storage is an append-only JSONL log (:mod:`repro.jsonlog`), fronted by
an LRU-bounded in-memory dict.  It is the only store of a cache
directory, and holds three kinds of record:

* a **row**: ``fp``, ``key`` (the digest above) and ``row``;
* a **failure strike**: ``sweep``, ``key`` (the digest the config's row
  would be stored under), ``error``, ``message`` and ``pid``, appended
  when a sweep's fresh completion fails.  It has no ``fp``.  A row
  appended later under the same key clears the key's strikes.  The
  strikes are what ``resume`` and the sweep service quarantine on
  (:mod:`repro.core.journal`);
* a **verdict**: ``fp``, ``analyzer`` (see
  :func:`repro.analysis.rules.analyzer_fingerprint`), ``key`` and
  ``report``, a lint or advise report of one config.  A model change
  invalidates it because the subject changed, an analyzer upgrade
  because the checks did.

Files the older builds kept beside the log (``sweep-journal.jsonl``,
``lint.jsonl``) are ignored.

The cache duck-types the plain-``dict`` protocol the runner always used
(``cache.get(config)`` / ``cache[config] = row``), so every ``cache=``
parameter in :mod:`repro.core` accepts either a throwaway dict or a
:class:`ResultCache`.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import jsonlog, telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import config_to_dict, row_from_dict, row_to_dict
from repro.core.runner import Row
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: On-disk record format version (independent of the sweep-file schema).
CACHE_FORMAT = 1

_fingerprint_memo: str | None = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def model_fingerprint(refresh: bool = False) -> str:
    """Digest of everything that determines a simulated result.

    Covers the package version, the repr of every cataloged cluster
    (all hardware parameters are frozen dataclasses, so their reprs are
    canonical), the compiler presets, and each miniapp's per-dataset
    kernel descriptors.  Memoized per process; ``refresh=True`` recomputes
    (tests use this after monkeypatching the catalog).
    """
    global _fingerprint_memo
    if _fingerprint_memo is not None and not refresh:
        return _fingerprint_memo

    import repro
    from repro.compile.options import PRESETS
    from repro.machine import catalog
    from repro.miniapps import SUITE

    parts = [f"repro={repro.__version__}"]
    for name in sorted(catalog.PROCESSORS):
        parts.append(f"processor:{name}={catalog.by_name(name)!r}")
    for pname in sorted(PRESETS):
        parts.append(f"preset:{pname}={PRESETS[pname]!r}")
    for aname in sorted(SUITE):
        app = SUITE[aname]
        for dname in sorted(app.datasets):
            kernels = app.kernels(app.dataset(dname))
            for kname in sorted(kernels):
                parts.append(f"kernel:{aname}/{dname}/{kname}="
                             f"{kernels[kname]!r}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
    _fingerprint_memo = digest
    return digest


def _key_payload(key: Any) -> dict:
    """Canonical JSON payload for a cache key.

    Accepts an :class:`ExperimentConfig`, or a tuple whose first element
    is one (the remaining elements must be JSON-safe primitives — the
    ablation studies key on ``(config, vector_length)``).
    """
    if isinstance(key, ExperimentConfig):
        return {"config": config_to_dict(key)}
    if isinstance(key, tuple) and key and isinstance(key[0], ExperimentConfig):
        extra = list(key[1:])
        for item in extra:
            if not isinstance(item, (str, int, float, bool, type(None))):
                raise ConfigurationError(
                    f"cache key extras must be JSON primitives, got {item!r}"
                )
        return {"config": config_to_dict(key[0]), "extra": extra}
    raise ConfigurationError(
        f"uncacheable key {key!r}: expected an ExperimentConfig or a "
        f"(config, *primitives) tuple"
    )


def payload_digest(payload: Any) -> str:
    """SHA-256 (hex, 16 chars) of ``payload``'s canonical JSON: sorted
    keys, compact separators."""
    return hashlib.sha256(jsonlog.encode(payload).encode()) \
        .hexdigest()[:16]


#: Per-process memo of :func:`config_digest`, emptied whole when it
#: reaches :data:`_DIGEST_MEMO_MAX` entries (the cache's default bound).
_digest_memo: dict[Any, str] = {}
_DIGEST_MEMO_MAX = 65536


def _memoizable(key: Any) -> bool:
    """Whether keys equal to ``key`` all have its canonical JSON: a bare
    config, or a config followed by ``str`` extras.  ``(cfg, 1)``,
    ``(cfg, 1.0)`` and ``(cfg, True)`` are equal but encode differently,
    so other extras are digested every time."""
    if type(key) is ExperimentConfig:
        return True
    return (type(key) is tuple and len(key) > 1
            and type(key[0]) is ExperimentConfig
            and all(type(item) is str for item in key[1:]))


def _memoize(key: Any, digest: str) -> None:
    memo = _digest_memo
    if len(memo) >= _DIGEST_MEMO_MAX:
        memo.clear()
    memo[key] = digest


def config_digest(key: Any) -> str:
    """Stable content digest of a cache key (hex, 16 chars), computed
    once per process for a config or an engine-tagged config."""
    if not _memoizable(key):
        return payload_digest(_key_payload(key))
    digest = _digest_memo.get(key)
    if digest is None:
        digest = payload_digest(_key_payload(key))
        _memoize(key, digest)
    return digest


def config_text(config: ExperimentConfig) -> str:
    """The canonical JSON of a config: what its digest hashes, inside
    ``{"config": ...}``."""
    return jsonlog.encode(config_to_dict(config))


def config_snapshot(config: ExperimentConfig) -> tuple[str, str | None]:
    """``(config_digest(config), text)``, where ``text`` is
    :func:`config_text` when this call computed the digest and ``None``
    when the memo held it.

    A run log writes a config's record from this text, so a config is
    encoded once for its digest and its record together.  The text is
    not memoized: a caller that needs it after a memo hit encodes the
    config again.
    """
    memoizable = type(config) is ExperimentConfig
    if memoizable:
        digest = _digest_memo.get(config)
        if digest is not None:
            return digest, None
    text = config_text(config)
    # payload_digest({"config": ...}) without encoding the config twice
    digest = hashlib.sha256(f'{{"config":{text}}}'.encode()).hexdigest()[:16]
    if memoizable:
        _memoize(config, digest)
    return digest, text


#: The strike entry of a key whose row cleared its strikes.
_DONE = {"done": True, "fails": 0, "error": "", "message": "", "pid": None}


def _add_strike(strikes: dict[str, dict[str, dict[str, Any]]],
                rec: dict[str, Any]) -> None:
    """Count strike record ``rec`` into ``strikes`` (digest -> sweep ->
    entry)."""
    entry = strikes.setdefault(rec["key"], {}).setdefault(
        str(rec["sweep"]), {"done": False, "fails": 0})
    entry["fails"] += 1
    entry["error"] = str(rec.get("error", ""))
    entry["message"] = str(rec.get("message", ""))
    entry["pid"] = rec.get("pid")


class ResultCache:
    """Persistent content-addressed cache of sweep :class:`Row` objects,
    and of the failure strikes and lint/advise verdicts of their configs.

    Parameters
    ----------
    directory:
        Where the JSONL file lives (created on first write).  ``None``
        selects :func:`default_cache_dir`.
    max_memory_entries:
        LRU bound on the in-memory rows; the disk file is unbounded.
    """

    __slots__ = ("directory", "max_memory_entries", "hits", "misses",
                 "torn_lines", "_mem", "_verdicts", "_strikes", "_loaded",
                 "_fingerprint", "_analyzer")

    FILENAME = "results.jsonl"

    def __init__(self, directory: str | Path | None = None, *,
                 max_memory_entries: int = 65536) -> None:
        if max_memory_entries < 1:
            raise ConfigurationError("max_memory_entries must be positive")
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.max_memory_entries = max_memory_entries
        self.hits = 0
        self.misses = 0
        self.torn_lines = 0
        self._mem: OrderedDict[str, Row] = OrderedDict()
        self._verdicts: dict[str, DiagnosticReport] = {}
        #: digest -> sweep -> strike entry (``{}`` once a row cleared the
        #: digest's strikes); ``None`` until the strikes are read.
        self._strikes: dict[str, dict[str, dict[str, Any]]] | None = None
        self._loaded = False
        self._fingerprint: str | None = None
        self._analyzer: str | None = None

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint()
        return self._fingerprint

    @property
    def analyzer(self) -> str:
        """The analyzer fingerprint the verdicts are kept under."""
        if self._analyzer is None:
            from repro.analysis.rules import analyzer_fingerprint

            self._analyzer = analyzer_fingerprint()
        return self._analyzer

    # ------------------------------------------------------------------
    def _remember(self, digest: str, row: Row) -> None:
        mem = self._mem
        if digest in mem:
            mem.move_to_end(digest)
        mem[digest] = row
        while len(mem) > self.max_memory_entries:
            mem.popitem(last=False)

    def _load(self, strikes: bool = False) -> None:
        """Read the log: its rows and verdicts on the first read, and
        with ``strikes=True`` its failure strikes as the file now stands.

        Rows and verdicts of another fingerprint, and verdicts of
        another analyzer, are expected invalidation and skipped
        silently.  A current record that no longer decodes (e.g. a
        preset that was since removed), or a strike without its key,
        counts as torn, on the first read only.
        """
        first = not self._loaded
        self._loaded = True
        fp = self.fingerprint
        struck: dict[str, dict[str, dict[str, Any]]] | None = \
            {} if strikes else None
        records, corrupt = jsonlog.read(self.path, CACHE_FORMAT)
        records.reverse()
        while records:
            # pop, not iterate: each parsed record is freed as its row
            # is decoded, so records and rows are never all alive at once
            rec = records.pop()
            if "sweep" in rec:
                if type(rec.get("key")) is not str:
                    corrupt += 1
                elif struck is not None:
                    _add_strike(struck, rec)
                continue
            if rec.get("fp") != fp:
                continue  # expected invalidation, not corruption
            if struck is not None and "row" in rec and "key" in rec:
                struck[str(rec["key"])] = {}  # a later row clears strikes
            if first:
                try:
                    self._decode(rec)
                except (ValueError, KeyError, TypeError, ConfigurationError,
                        AttributeError):
                    corrupt += 1
        if first and corrupt:
            # Surface through telemetry rather than a one-shot
            # warnings.warn: the count lands in the run's metrics and shows
            # up as a `repro report` line item, and stays inspectable on
            # the cache object itself.
            self.torn_lines += corrupt
            telemetry.count("cache.torn_lines", corrupt)
        if struck is not None:
            self._strikes = struck

    def _decode(self, rec: dict[str, Any]) -> None:
        """Keep one current row or verdict record in memory."""
        digest = str(rec["key"])
        if "analyzer" not in rec:
            self._remember(digest, row_from_dict(rec["row"]))
        elif rec["analyzer"] == self.analyzer:
            from repro.analysis.diagnostics import DiagnosticReport

            self._verdicts[digest] = DiagnosticReport.from_dict(
                rec["report"])

    def _append(self, digest: str, row: Row) -> None:
        jsonlog.append(self.path, {"format": CACHE_FORMAT,
                                   "fp": self.fingerprint, "key": digest,
                                   "row": row_to_dict(row)})

    # ------------------------------------------------------------------
    def get(self, key: Any, default: Row | None = None) -> Row | None:
        if not self._loaded:
            self._load()
        digest = config_digest(key)
        row = self._mem.get(digest)
        if row is None:
            self.misses += 1
            telemetry.count("cache.miss")
            return default
        self._mem.move_to_end(digest)
        self.hits += 1
        telemetry.count("cache.hit")
        return row

    def put(self, key: Any, row: Row) -> None:
        if not self._loaded:
            self._load()
        digest = config_digest(key)
        if digest in self._mem:
            self._remember(digest, row)
            return
        self._remember(digest, row)
        self._append(digest, row)
        if self._strikes is not None:
            self._strikes[digest] = {}  # the appended row clears strikes
        telemetry.count("cache.store")

    # dict-protocol aliases so ResultCache drops in wherever a plain
    # memo dict was accepted.
    def __setitem__(self, key: Any, row: Row) -> None:
        self.put(key, row)

    def __getitem__(self, key: Any) -> Row:
        row = self.get(key)
        if row is None:
            raise KeyError(key)
        return row

    def __contains__(self, key: Any) -> bool:
        if not self._loaded:
            self._load()
        return config_digest(key) in self._mem

    def __len__(self) -> int:
        if not self._loaded:
            self._load()
        return len(self._mem)

    # -- failure strikes: the state of repro.core.journal's view --------
    def strike(self, sweep: str, key: Any,
               exc: BaseException | None) -> None:
        """Append a failure strike against ``key``'s row for ``sweep``:
        the exception's class and message, and the pid that raised it
        when known."""
        rec: dict[str, Any] = {
            "format": CACHE_FORMAT, "sweep": sweep,
            "key": config_digest(key),
            "error": type(exc).__name__ if exc is not None else "",
            "message": str(exc) if exc is not None else "",
        }
        pid = getattr(exc, "_repro_pid", None)
        if pid is not None:
            rec["pid"] = pid
        telemetry.count("journal.failed")
        if self._strikes is not None:
            _add_strike(self._strikes, rec)
        jsonlog.append(self.path, rec)

    def read_strikes(self) -> None:
        """Read the strikes as the log stands now, other processes'
        appends included; this cache's later puts and strikes update
        them."""
        self._load(strikes=True)

    def strike_status(self, sweep: str, key: Any) -> dict[str, Any] | None:
        """The strikes against ``key``'s row for ``sweep`` (keys: done,
        fails, error, message, pid): ``done`` once a row cleared them,
        ``None`` when the log holds neither."""
        if self._strikes is None:
            self.read_strikes()
        sweeps = (self._strikes or {}).get(config_digest(key))
        if sweeps is None:
            return None
        entry = sweeps.get(sweep)
        if entry is not None:
            return dict(entry)
        return None if sweeps else dict(_DONE)

    # -- lint and advise verdicts ---------------------------------------
    def verdict(self, key: Any) -> DiagnosticReport | None:
        """The :class:`~repro.analysis.diagnostics.DiagnosticReport`
        this analyzer stored under ``key``, or ``None``."""
        if not self._loaded:
            self._load()
        return self._verdicts.get(config_digest(key))

    def put_verdict(self, key: Any, report: DiagnosticReport) -> None:
        if not self._loaded:
            self._load()
        digest = config_digest(key)
        known = digest in self._verdicts
        self._verdicts[digest] = report
        if not known:
            jsonlog.append(self.path, {
                "format": CACHE_FORMAT, "fp": self.fingerprint,
                "analyzer": self.analyzer, "key": digest,
                "report": report.to_dict()})

    # ------------------------------------------------------------------
    def compact(self, *, keep_stale: bool = True) -> dict[str, int]:
        """Rewrite the JSONL file without torn, superseded or cleared
        records, keeping what every lookup answers.

        The append-only write path never rewrites history, so a
        long-lived cache accumulates garbage: truncated lines from
        killed processes, superseded records (every ``put`` appends),
        and strikes a later row cleared.  ``compact`` keeps the
        **last** row per (fingerprint, key) and the last verdict per
        (fingerprint, analyzer, key), in first-seen order, then every
        strike no later row of its key cleared, in log order: after the
        rows, so they clear as they did.  Torn lines and records missing
        a fingerprint, key, row or report count as ``dropped_torn``;
        records of another on-disk format are dropped uncounted;
        superseded records and cleared strikes count as
        ``dropped_duplicates``.  ``keep_stale=False`` also drops rows and
        verdicts of other model fingerprints and verdicts of other
        analyzers (this build can never serve them).

        The rewrite is atomic (:func:`repro.jsonlog.rewrite`), so a
        reader sees either the old file or the new one, never a
        half-written hybrid.  Returns counters:
        ``kept``, ``dropped_torn``, ``dropped_duplicates``,
        ``dropped_stale``, ``bytes_before``, ``bytes_after``.
        """
        stats = {"kept": 0, "dropped_torn": 0, "dropped_duplicates": 0,
                 "dropped_stale": 0, "bytes_before": 0, "bytes_after": 0}
        try:
            stats["bytes_before"] = self.path.stat().st_size
        except OSError:
            return stats  # nothing on disk: already as compact as it gets
        records, stats["dropped_torn"] = jsonlog.read(self.path,
                                                      CACHE_FORMAT)
        fp = self.fingerprint
        #: (fp, analyzer or None, key) -> last record for it, in
        #: first-seen order.
        latest: dict[tuple[str, Any, str], dict[str, Any]] = {}
        #: current key -> position of its last row
        last_row: dict[str, int] = {}
        strikes: list[tuple[int, dict[str, Any]]] = []
        for i, rec in enumerate(records):
            if "sweep" in rec:
                if type(rec.get("key")) is str:
                    strikes.append((i, rec))
                else:
                    stats["dropped_torn"] += 1
                continue
            analyzer = rec.get("analyzer")
            if analyzer is not None:
                analyzer = str(analyzer)
            if "fp" not in rec or "key" not in rec \
                    or ("row" if analyzer is None else "report") not in rec:
                stats["dropped_torn"] += 1
                continue
            record_fp, key = str(rec["fp"]), str(rec["key"])
            if analyzer is None and record_fp == fp:
                last_row[key] = i
            if not keep_stale and (record_fp != fp or analyzer not in
                                   (None, self.analyzer)):
                stats["dropped_stale"] += 1
                continue
            if (record_fp, analyzer, key) in latest:
                stats["dropped_duplicates"] += 1
            latest[(record_fp, analyzer, key)] = rec
        kept = [rec for i, rec in strikes if i > last_row.get(rec["key"], -1)]
        stats["dropped_duplicates"] += len(strikes) - len(kept)
        stats["kept"] = len(latest) + len(kept)
        jsonlog.rewrite(self.path, [*latest.values(), *kept])
        stats["bytes_after"] = self.path.stat().st_size
        # Reload so the memory layer reflects exactly what survived.
        self._mem.clear()
        self._verdicts.clear()
        self._loaded = False
        telemetry.count("cache.compacted")
        return stats

    def clear(self) -> None:
        """Drop the in-memory layer and delete the on-disk file."""
        self._mem.clear()
        self._verdicts.clear()
        self._strikes = None
        self._loaded = True
        try:
            self.path.unlink()
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "torn_lines": self.torn_lines, "entries": len(self)}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<ResultCache {self.path} entries={len(self._mem)} "
                f"hits={self.hits} misses={self.misses}>")
