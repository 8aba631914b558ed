"""The quarantine view: failure strikes behind ``--resume``.

Completed rows survive a killed sweep in the persistent
:class:`~repro.core.cache.ResultCache`.  A config that raised has no
row, so a naive restart would re-run it forever if the failure is
deterministic.  A sweep's failed fresh completion therefore appends a
**strike** to the cache's log, keyed by the digest its row would be
stored under (so strikes are per engine); a row later in the log
clears the key's strikes in every sweep.  A config with
:data:`~repro.core.runner.QUARANTINE_AFTER` strikes for the sweep is
**quarantined** by ``run_sweep(..., resume=True)`` and the sweep
service: recorded in ``SweepResult.errors`` without another attempt.

A write never reads.  A :class:`SweepJournal` reads the log on its
first quarantine query, as it stands then, other processes' appends
included; completions through the same cache after that update the
loaded state.
"""

from __future__ import annotations

from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import cache_key


class SweepJournal:
    """Quarantine view over one cache's log, shared by all sweeps in it."""

    __slots__ = ("cache", "_loaded")

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self._loaded = False

    @classmethod
    def for_cache(cls, cache) -> "SweepJournal | None":
        """The view over a persistent cache's log; ``None`` for
        non-persistent caches (plain dicts have no log to strike in)."""
        if getattr(cache, "directory", None) is None:
            return None
        return cls(cache)

    # ------------------------------------------------------------------
    def status(self, sweep: str, config: ExperimentConfig,
               engine: str = "event") -> dict | None:
        """Strike state of one config's ``engine`` row for ``sweep``, or
        ``None`` if the log knows nothing of it (keys: done, fails,
        error, message, pid)."""
        if not self._loaded:
            self._loaded = True
            self.cache.read_strikes()
        return self.cache.strike_status(sweep, cache_key(config, engine))

    def failures(self, sweep: str, config: ExperimentConfig,
                 engine: str = "event") -> int:
        """Consecutive failure count for a config (0 if unknown/done)."""
        entry = self.status(sweep, config, engine)
        return 0 if entry is None else int(entry["fails"])

    def quarantined(self, sweep: str, config: ExperimentConfig,
                    threshold: int, engine: str = "event") -> dict | None:
        """The strike entry if ``config`` has failed ``threshold``+
        consecutive times for ``sweep`` (the quarantine predicate shared
        by ``run_sweep(..., resume=True)`` and the sweep service), else
        ``None``."""
        entry = self.status(sweep, config, engine)
        if entry is not None and int(entry["fails"]) >= threshold:
            return entry
        return None

    def record(self, sweep: str, config: ExperimentConfig, ok: bool,
               exc: BaseException | None = None, *,
               engine: str = "event") -> None:
        """Journal one fresh completion: a failure appends a strike; a
        success appends nothing here, because its row, stored in the
        cache, is its record."""
        if not ok:
            self.cache.strike(sweep, cache_key(config, engine), exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<SweepJournal over {self.cache.path}>"
