"""Sweep execution: configurations in, result rows out.

``run_config``/``run_sweep`` accept a ``cache`` (a plain dict for
process-lifetime memoization, or a persistent
:class:`~repro.core.cache.ResultCache`).  Both gate each config, then
make one dispatch call for every engine
(:func:`repro.core.parallel.run_configs`) — ``run_config`` is a
one-config sweep.  Every event row they return comes from one private
execution, :func:`_simulate`, whichever worker ran it; ``workers=N``
runs the event-engine misses on the process pool of
:class:`repro.core.scheduler.Scheduler`, with the exact serial row
ordering and values.  :func:`record_completion` checkpoints every fresh
completion, whichever path produced it, into the cache's one log: a
success as its row, a sweep's failure as a strike.  So with a
persistent cache ``run_sweep(..., resume=True)`` restarts an
interrupted sweep where it stopped, and quarantines the configs that
keep failing (see :mod:`repro.core.journal`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro import telemetry
from repro.core.experiment import ExperimentConfig
from repro.machine import catalog
from repro.miniapps import by_name
from repro.runtime.executor import Job, RunResult, run_job
from repro.runtime.placement import JobPlacement
from repro.runtime.replay import collector_paused


@dataclass(frozen=True)
class Row:
    """One sweep result.

    ``engine`` records which scoring path produced the numbers —
    ``"event"`` (discrete-event executor) or ``"analytic"`` (closed-form
    batch engine) — and survives cache round-trips, so warm hits report
    their provenance.
    """

    config: ExperimentConfig
    elapsed: float
    gflops: float
    dram_gbytes_per_s: float
    comm_fraction: float
    engine: str = "event"

    @property
    def label(self) -> str:
        return self.config.label()


@dataclass
class SweepResult:
    """An ordered collection of sweep rows with lookup helpers.

    ``errors`` holds per-row failures when the sweep ran with
    ``errors="capture"`` (see :func:`run_sweep`); successful rows keep
    their relative order regardless.
    """

    name: str
    rows: list[Row] = field(default_factory=list)
    errors: list = field(default_factory=list, compare=False)
    #: attr -> (row count at build time, value -> rows); rebuilt lazily
    #: whenever the row count changes, so direct ``rows`` appends are safe.
    _indexes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def add(self, row: Row) -> None:
        self.rows.append(row)

    def _index_for(self, attr: str) -> dict[Any, list[Row]]:
        cached = self._indexes.get(attr)
        if cached is not None and cached[0] == len(self.rows):
            return cached[1]
        index: dict[Any, list[Row]] = {}
        for row in self.rows:
            index.setdefault(getattr(row.config, attr), []).append(row)
        self._indexes[attr] = (len(self.rows), index)
        return index

    def by(self, **attrs) -> list[Row]:
        """Rows whose config matches all given attributes.

        The first attribute is served from a per-attribute index (one
        dict probe instead of a full scan); any further attributes filter
        the indexed candidates.
        """
        if not attrs:
            return list(self.rows)
        items = iter(attrs.items())
        first_attr, first_value = next(items)
        candidates = self._index_for(first_attr).get(first_value, [])
        rest = list(items)
        if not rest:
            return list(candidates)
        return [
            row for row in candidates
            if all(getattr(row.config, k) == v for k, v in rest)
        ]

    def best_per(self, attr: str) -> dict[Any, Row]:
        """Fastest row per distinct config value of ``attr``.

        Values appear in first-seen row order, so e.g.
        ``best_per("app")`` over a multi-app sweep walks apps in sweep
        order.
        """
        best: dict[Any, Row] = {}
        for value, rows in self._index_for(attr).items():
            best[value] = min(rows, key=lambda r: r.elapsed)
        return best

    def fastest(self) -> Row:
        if not self.rows:
            raise ValueError(f"sweep {self.name!r} is empty")
        return min(self.rows, key=lambda r: r.elapsed)


def _gate(kind: str, config: ExperimentConfig, cache,
          advise: str | None = None):
    """Run one static gate on ``config`` before spending simulation time.

    ``kind="lint"`` is the pre-flight lint: it raises
    :class:`~repro.errors.LintError` on error-severity findings and is a
    no-op when disabled via ``--no-lint`` / ``REPRO_NO_LINT=1`` (the
    environment variable travels into sweep worker processes).  It
    returns the job a fresh analysis assembled and the traces it
    replayed, for the run to walk.

    ``kind="advise"`` is the opt-in performance gate.  ``advise=None``
    defers to the global :func:`repro.analysis.advisor.advise_mode`
    (``REPRO_ADVISE``, worker-propagating); ``"off"`` is a no-op.
    ``"warn"`` raises :class:`~repro.errors.AdviseError` on
    error-severity findings (infeasible placements); ``"error"``
    additionally blocks on warnings.  Unlike the lint gate it runs for
    every engine — the advisor consumes only the closed-form model.

    Both record a ``gate.<kind>`` span, a ``gate.<kind>.seconds``
    histogram and a ``gate.<kind>.blocked`` count.  When ``cache`` is
    persistent, advise verdicts are records of its log; lint verdicts
    are memoized in-process only.
    """
    if kind == "lint":
        from repro.analysis import analyzer

        if not analyzer.preflight_enabled():
            return None
        check, attrs = analyzer.preflight, {}
    else:
        from repro.analysis import advisor

        mode = advisor.advise_mode() if advise is None else \
            advisor.check_mode(advise)
        if mode == "off":
            return None
        persistent = getattr(cache, "directory", None) is not None
        check = partial(advisor.advise_gate,
                        cache=cache if persistent else None, mode=mode)
        attrs = {"mode": mode}
    t0 = time.perf_counter()
    try:
        with telemetry.span(f"gate.{kind}", config=config.label(), **attrs):
            return check(config)
    except Exception:
        telemetry.count(f"gate.{kind}.blocked")
        raise
    finally:
        telemetry.observe(f"gate.{kind}.seconds", time.perf_counter() - t0)


def cache_key(config: ExperimentConfig, engine: str):
    """Cache key for one config under one engine.

    Event rows keep the bare-config key (backward compatible with every
    cache written before engines existed); analytic rows (``auto`` rows
    are analytic rows) are tagged so the two scoring paths can never
    alias in the content-addressed cache.
    """
    if engine == "event":
        return config
    return (config, "engine=analytic")


def record_completion(cache, sweep: str | None, config: ExperimentConfig,
                      engine: str, ok: bool, value) -> None:
    """Checkpoint one fresh completion, whichever path produced it.

    A row is stored in ``cache`` under its :func:`cache_key`.  A
    failure of a ``sweep`` is struck against that key in a persistent
    cache's log, where ``resume`` and quarantine count it; ``sweep=None``
    (a single ``run_config``) strikes nothing.  ``cache`` may be
    ``None``.
    """
    if ok:
        if cache is not None:
            cache[cache_key(config, engine)] = value
    elif sweep is not None and getattr(cache, "directory", None) is not None:
        cache.strike(sweep, cache_key(config, engine), value)


def run_config(config: ExperimentConfig, cache=None, *,
               engine: str = "event", fault_plan=None,
               advise: str | None = None) -> Row:
    """Simulate (or analytically score) one configuration.

    ``cache`` memoizes identical configs across sweeps — experiments
    share baseline points.  It may be a plain dict (dies with the
    process) or a :class:`~repro.core.cache.ResultCache` (persistent,
    fingerprint-validated).

    ``engine`` selects the scoring path: ``"event"`` (discrete-event
    executor, the default), ``"analytic"`` (closed-form batch engine —
    no event-level effects, see DESIGN.md), or ``"auto"`` (analytic
    score, cross-checked against an event re-simulation; raises
    :class:`~repro.errors.EngineDisagreement` beyond tolerance).

    ``advise`` opts into the static performance gate
    (:mod:`repro.analysis.advisor`): ``"warn"`` raises
    :class:`~repro.errors.AdviseError` on error-severity findings,
    ``"error"`` blocks on warnings too, ``"off"`` skips; ``None``
    (default) follows the global mode (``REPRO_ADVISE`` /
    ``set_advise_mode``).  The gate runs before the cache lookup — an
    opted-in caller wants the verdict even for warm rows, and the
    advisor memoizes per config so the repeat cost is a dict probe.

    Past the gate this is a one-config sweep: the row comes from
    :func:`~repro.core.parallel.run_configs`, the dispatch call behind
    ``run_sweep``, and the config's exception (if any) is raised.

    A non-empty ``fault_plan`` requires the event engine (the analytic
    model has no fault dynamics — anything else would silently ignore
    the plan) and bypasses the cache in both directions: a degraded run
    must never poison, nor be served from, fault-free rows.

    With telemetry on (the default — see :mod:`repro.telemetry`), a
    top-level call records itself as a run in the process's log
    ``results/runs/<session>.jsonl``; inside an active run it
    contributes a ``config`` span instead.
    """
    from repro.analytic import engine as analytic_engine
    from repro.core.parallel import run_configs

    analytic_engine.check_engine(engine)
    with telemetry.run_scope(kind="config", name=config.label(),
                             configs=[config], engine=engine,
                             cache=cache, advise=advise,
                             fault_plan=fault_plan) as run:
        _gate("advise", config, cache, advise)
        if fault_plan is not None and not getattr(fault_plan, "empty",
                                                  False):
            if engine != "event":
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    f"engine={engine!r} cannot inject faults: the "
                    f"analytic model has no fault dynamics; use "
                    f"engine='event' for FaultPlan / chaos runs"
                )
            row = _simulate(config, fault_plan)
        else:
            (row,) = run_configs([config], cache=cache, engine=engine)
            if isinstance(row, Exception):
                raise row
            if engine == "auto":
                analytic_engine.cross_validate(config.label(), [config],
                                               [row], cache)
        if run is not None:
            run.attach_rows(config.label(), [row])
        return row


def event_placement(config: ExperimentConfig) -> JobPlacement:
    """Where ``config`` puts its ranks and threads, on its own cluster."""
    cluster = catalog.by_name(config.processor, n_nodes=config.n_nodes)
    return JobPlacement(cluster, config.n_ranks, config.n_threads,
                        allocation=config.allocation, binding=config.binding)


def event_job(config: ExperimentConfig, options=None) -> Job:
    """The event-engine job for ``config``; ``options`` overrides the
    config's compiler preset (the vector-length ablation)."""
    placement = event_placement(config)
    return by_name(config.app).build_job(
        placement.cluster, placement, dataset=config.dataset,
        options=config.options if options is None else options,
        data_policy=config.data_policy)


def event_row(config: ExperimentConfig, result: RunResult) -> Row:
    """The sweep row of one event-engine run of ``config``."""
    return Row(
        config=config,
        elapsed=result.elapsed,
        gflops=result.achieved_flops_per_s / 1e9,
        dram_gbytes_per_s=result.dram_bandwidth / 1e9,
        comm_fraction=result.communication_fraction(),
        engine="event",
    )


@collector_paused()
def _simulate(config: ExperimentConfig, fault_plan=None) -> Row:
    """The one event execution of a config, uncached: pre-flight lint,
    job assembly, the optional fault plan, :func:`run_job`, the row.
    The run takes the job the lint gate assembled and walks the traces
    it replayed, or assembles and replays what the gate did not, so each
    job is built once and each rank program runs once.  The traces live
    from the gate to the end of the run with the cyclic collector
    paused, and die with this call.

    Every event row a sweep or :func:`run_config` returns is made
    here — by serial, pool and service workers
    (:func:`repro.core.parallel.simulate_config`) and faulted
    :func:`run_config` calls alike.
    """
    job, traces = _gate("lint", config, None) or (event_job(config), None)
    if fault_plan is not None:
        job = dataclasses.replace(job, fault_plan=fault_plan)
        telemetry.count("faults.runs")
    with telemetry.span("score.event", config=config.label()):
        result = run_job(job, traces)
    if result.fault_stats is not None:
        for stat, value in result.fault_stats.to_dict().items():
            if value:
                telemetry.count(f"faults.{stat}", value)
    return event_row(config, result)


#: Strike count at which ``resume`` quarantines a config.
QUARANTINE_AFTER = 2


def run_sweep(name: str, configs: list[ExperimentConfig],
              cache=None, *, workers: int = 1,
              errors: str = "raise", resume: bool = False,
              retry=None, engine: str = "event",
              advise: str | None = None) -> SweepResult:
    """Simulate every configuration of a sweep, preserving order.

    Parameters
    ----------
    cache:
        Optional result cache shared across sweeps (dict or
        :class:`~repro.core.cache.ResultCache`).
    workers:
        ``> 1`` fans the cache-missing event-engine configs out over a
        process pool; row order and values are identical to the serial
        run.  ``<= 1`` runs serially in this process; an environment
        without a usable pool runs in-process too.
    errors:
        ``"raise"`` (default) re-raises the first failing config's
        exception; ``"capture"`` records failures as
        :class:`~repro.core.parallel.SweepError` entries on
        ``SweepResult.errors`` and keeps the surviving rows.
    resume:
        Pick up a previously interrupted run of this sweep.  Requires a
        persistent :class:`~repro.core.cache.ResultCache`: completed
        rows are served from the cache (they were checkpointed as they
        finished) and only the remainder is simulated.  Configs whose
        row under ``engine`` the cache's log shows failing for this
        sweep :data:`QUARANTINE_AFTER` or more times are
        **quarantined** — recorded on ``SweepResult.errors``
        without another attempt, whatever the ``errors`` mode, so one
        deterministically broken config cannot wedge the restart loop.
    retry:
        Optional :class:`~repro.core.parallel.RetryPolicy` tuning pool
        resilience (per-execution watchdog, retry attempts, backoff).
    engine:
        ``"event"`` (default) simulates each config; ``"analytic"``
        scores the whole sweep in one closed-form batch call (workers
        are irrelevant — there is no per-config simulation to fan out);
        ``"auto"`` scores analytically, then re-simulates a seeded
        sample with the event executor and raises
        :class:`~repro.errors.EngineDisagreement` if the engines differ
        beyond tolerance — whatever the ``errors`` mode, because a
        model-level disagreement taints every row, not one config.
    advise:
        Opt-in static performance gate, checked serially before any
        config is dispatched (the advisor is closed-form — no
        simulation time is spent).  ``"warn"`` blocks configs with
        error-severity findings, ``"error"`` blocks on warnings too,
        ``"off"`` skips, ``None`` (default) follows the global mode.
        Under ``errors="capture"`` a gated config is recorded on
        ``SweepResult.errors`` (like a quarantined one) and the rest of
        the sweep proceeds; under ``errors="raise"`` the first
        :class:`~repro.errors.AdviseError` propagates.

    When the cache is persistent, every fresh failure is also struck in
    its log (a success is its stored row) — that is what ``resume``
    consults.

    With telemetry on (the default), the sweep records itself as a run
    in the process's log ``results/runs/<session>.jsonl`` (see
    :mod:`repro.telemetry.runlog`); a resumed sweep appends under the
    original run id.  Nested sweeps (figure builders inside
    ``repro report``) become spans of the enclosing run instead.
    """
    if errors not in ("raise", "capture"):
        raise ValueError(f"errors must be 'raise' or 'capture', not {errors!r}")
    from repro.analytic import engine as analytic_engine

    analytic_engine.check_engine(engine)
    with telemetry.run_scope(kind="sweep", name=name, configs=configs,
                             engine=engine, workers=workers,
                             resume=resume, cache=cache,
                             advise=advise) as run:
        sweep = _run_sweep_impl(name, configs, cache, workers=workers,
                                errors=errors, resume=resume, retry=retry,
                                engine=engine, advise=advise)
        if run is not None:
            run.attach_sweep(sweep)
        return sweep


def _run_sweep_impl(name: str, configs: list[ExperimentConfig],
                    cache=None, *, workers: int = 1,
                    errors: str = "raise", resume: bool = False,
                    retry=None, engine: str = "event",
                    advise: str | None = None) -> SweepResult:
    from repro.analytic import engine as analytic_engine
    from repro.core.journal import SweepJournal
    from repro.core.parallel import SweepError, run_configs
    from repro.errors import AdviseError

    journal = SweepJournal.for_cache(cache) if resume else None
    if resume and journal is None:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            "resume requires a persistent ResultCache (completed rows and "
            "failure strikes live in its log)"
        )

    quarantine: dict[ExperimentConfig, SweepError] = {}
    for config in configs:
        if config in quarantine:
            continue
        entry = journal.quarantined(name, config, QUARANTINE_AFTER,
                                    engine) if journal is not None else None
        if entry is not None:
            quarantine[config] = SweepError.from_quarantine(config, entry)
            continue
        try:
            _gate("advise", config, cache, advise)
        except AdviseError as exc:
            if errors == "raise":
                raise
            quarantine[config] = SweepError.from_exception(config, exc)

    if quarantine:
        telemetry.count("sweep.quarantined", len(quarantine))
    to_run = [c for c in configs if c not in quarantine]
    with telemetry.span("dispatch", engine=engine, configs=len(to_run),
                        workers=workers):
        outcome_list = run_configs(to_run, workers=workers, cache=cache,
                                   retry=retry, engine=engine, sweep=name)
    outcomes = iter(outcome_list)
    sweep = SweepResult(name)
    aligned: list = []
    for config in configs:
        quarantined = quarantine.get(config)
        if quarantined is not None:
            sweep.errors.append(quarantined)
            aligned.append(None)
            continue
        outcome = next(outcomes)
        aligned.append(outcome)
        if isinstance(outcome, Exception):
            if errors == "raise":
                raise outcome
            sweep.errors.append(SweepError.from_exception(config, outcome))
        else:
            sweep.add(outcome)
    if engine == "auto":
        # fail loudly on model-level disagreement, whatever the errors
        # mode — it taints every analytic row, not one config
        with telemetry.span("cross-validate", configs=len(configs)):
            analytic_engine.cross_validate(name, configs, aligned, cache)
    return sweep
