"""Chaos campaigns: replay fault plans across the miniapp catalog and
assert resilience invariants.

``repro chaos`` runs, per miniapp, a deterministic scenario ladder —
baseline, straggler severity sweep, message delay, message duplication,
rank crash, message drop — every scenario **twice**, and checks:

* **deterministic-replay** — the same :class:`~repro.faults.FaultPlan`
  seed produces bit-identical elapsed times, per-rank finish times, and
  PMU counter totals on both runs;
* **lint-agreement** — deadlock-freedom under *lossless* faults (delay,
  duplicate, straggler) matches the static analyzer's verdict: a program
  the analyzer proves deadlock-free must still complete;
* **conservation** — per-rank attributed time (regions + waits) equals
  the rank's finish time, and counter-summed flops equal the executor's
  totals, under every injected fault;
* **monotone-degradation** — elapsed time is non-decreasing in straggler
  severity and never below the fault-free baseline;
* **degradation-accounting** — lossy faults (crash, drop) degrade the
  run into recorded ``failed_ranks``/``stalled_ranks`` instead of
  raising, and only when a lossy fault actually fired.

The outcome is a JSON artifact (:meth:`ChaosReport.to_json`) that is
itself bit-reproducible for a given seed — CI diffs it as a smoke gate.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.faults.plan import CrashRank, FaultPlan, MessageFault, Straggler

#: Apps exercised by ``--quick`` (one halo-exchange CFD code, one
#: collective-heavy QMC code — the two p2p/collective extremes).
QUICK_APPS = ("ffvc", "mvmc")

#: Straggler severity ladder (monotone-degradation axis).
SEVERITIES = (1.4, 1.9, 2.6)

#: Relative slack for >=-comparisons between simulated times.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class Invariant:
    """One checked property of one scenario."""

    id: str
    app: str
    scenario: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "app": self.app, "scenario": self.scenario,
                "ok": self.ok, "detail": self.detail}


@dataclass(kw_only=True)
class CampaignReport:
    """What every chaos campaign reports: scenario outcomes plus
    invariant verdicts, as bit-reproducible JSON and as text."""

    seed: int
    scenarios: list[dict[str, Any]] = field(default_factory=list)
    invariants: list[Invariant] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    @property
    def violations(self) -> list[Invariant]:
        return [inv for inv in self.invariants if not inv.ok]

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": list(self.scenarios),
            "invariants": [inv.to_dict() for inv in self.invariants],
        }

    def _render(self, title: str, noun: str,
                where: Callable[[Invariant], str]) -> str:
        lines = [title, f"  {len(self.scenarios)} {noun}, "
                        f"{len(self.invariants)} invariants checked"]
        lines += [f"  VIOLATION {where(inv)} [{inv.id}]: {inv.detail}"
                  for inv in self.violations]
        lines.append("  all invariants hold" if self.ok
                     else f"  {len(self.violations)} violation(s)")
        return "\n".join(lines)


@dataclass
class ChaosReport(CampaignReport):
    """The per-app fault campaign's artifact."""

    processor: str
    apps: list[str]

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "processor": self.processor,
                "apps": list(self.apps)}

    def render(self) -> str:
        return self._render(
            f"chaos campaign: seed={self.seed} processor={self.processor} "
            f"apps={','.join(self.apps)}", "scenario runs",
            lambda inv: f"{inv.app}/{inv.scenario}")


def _signature(result, profile) -> dict[str, Any]:
    """Bit-stable fingerprint of one run (the determinism invariant)."""
    total = profile.total_counters()
    stats = result.fault_stats
    return {
        "elapsed": result.elapsed,
        "rank_finish": {str(r): t
                        for r, t in sorted(result.rank_finish.items())},
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "total_flops": result.total_flops,
        "counter_flops": total.flops,
        "counter_cycles": total.cycles,
        "failed_ranks": list(result.failed_ranks),
        "stalled_ranks": list(result.stalled_ranks),
        "fault_stats": None if stats is None else stats.to_dict(),
    }


def _run_profiled(job, plan: FaultPlan | None):
    """Run ``job`` under ``plan`` with the PMU attached."""
    from repro.perf.profile import ProfileSink
    from repro.runtime.executor import run_job

    sink = ProfileSink()
    result = run_job(dataclasses.replace(job, perf_sink=sink,
                                         fault_plan=plan))
    return result, sink.profile()


class _Campaign:
    """One app's scenario ladder against one job."""

    def __init__(self, report: ChaosReport, app: str, job) -> None:
        self.report = report
        self.app = app
        self.job = job

    def check(self, scenario: str, inv_id: str, ok: bool,
              detail: str = "") -> None:
        self.report.invariants.append(
            Invariant(id=inv_id, app=self.app, scenario=scenario,
                      ok=ok, detail=detail))

    def run(self, scenario: str, plan: FaultPlan | None):
        """Run twice, record the scenario, enforce the universal
        invariants (replay determinism + conservation); returns the
        first run's (result, profile), or (None, None) on error."""
        try:
            result, profile = _run_profiled(self.job, plan)
            replay, _ = _run_profiled(self.job, plan)
        except ReproError as exc:
            self.report.scenarios.append({
                "app": self.app, "scenario": scenario,
                "plan": None if plan is None else plan.to_dict(),
                "error": f"{type(exc).__name__}: {exc}",
            })
            return None, None
        sig = _signature(result, profile)
        self.report.scenarios.append({
            "app": self.app, "scenario": scenario,
            "plan": None if plan is None else plan.to_dict(),
            **sig,
        })
        self.check(scenario, "deterministic-replay",
                   sig["elapsed"] == replay.elapsed
                   and sig["rank_finish"] == {
                       str(r): t
                       for r, t in sorted(replay.rank_finish.items())}
                   and sig["messages_sent"] == replay.messages_sent
                   and sig["bytes_sent"] == replay.bytes_sent
                   and sig["failed_ranks"] == list(replay.failed_ranks)
                   and sig["stalled_ranks"] == list(replay.stalled_ranks),
                   detail=f"elapsed {sig['elapsed']!r} vs "
                          f"{replay.elapsed!r}")
        self._check_conservation(scenario, result, profile)
        return result, profile

    def _check_conservation(self, scenario: str, result, profile) -> None:
        worst = 0.0
        for rank, finish in result.rank_finish.items():
            attributed = profile.attributed_seconds(rank)
            err = abs(attributed - finish) / max(finish, 1e-30)
            worst = max(worst, err)
        self.check(scenario, "time-conservation", worst < 1e-6,
                   detail=f"max per-rank attribution error {worst:.2e}")
        flops = profile.total_counters().flops
        err = abs(flops - result.total_flops) / max(result.total_flops, 1.0)
        self.check(scenario, "flop-conservation", err < 1e-6,
                   detail=f"counter {flops:.6g} vs executor "
                          f"{result.total_flops:.6g}")


def _lint_verdict(job) -> bool:
    """True when the static analyzer proves the program deadlock-free."""
    from repro.analysis import analyze_job

    return analyze_job(job).ok


def run_campaign(seed: int = 0, *, apps: tuple[str, ...] | None = None,
                 quick: bool = False, processor: str = "A64FX",
                 n_ranks: int = 4, n_threads: int = 2,
                 engine: str = "event") -> ChaosReport:
    """Run the chaos scenario ladder and return the report.

    Fault injection is event-level dynamics by definition, so only
    ``engine="event"`` is meaningful; any other value raises
    :class:`~repro.errors.ConfigurationError` rather than silently
    ignoring the fault plans (mirrors ``run_config``'s guard).
    """
    from repro.compile.options import PRESETS
    from repro.machine import catalog
    from repro.miniapps import SUITE, by_name
    from repro.runtime.placement import JobPlacement

    if engine != "event":
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"engine={engine!r} cannot inject faults: chaos campaigns "
            f"need the event executor; drop --engine or use "
            f"--engine event"
        )

    if apps is None:
        apps = QUICK_APPS if quick else tuple(sorted(SUITE))
    report = ChaosReport(seed=seed, processor=processor, apps=list(apps))
    cluster = catalog.by_name(processor)

    for app in apps:
        rng = random.Random(f"{seed}:{app}")
        victim = rng.randrange(n_ranks)
        placement = JobPlacement(cluster, n_ranks, n_threads)
        job = by_name(app).build_job(cluster, placement, dataset="as-is",
                                     options=PRESETS["kfast"])
        c = _Campaign(report, app, job)
        lint_ok = _lint_verdict(job)

        # -- baseline -------------------------------------------------
        base, _ = c.run("baseline", None)
        if base is None:
            c.check("baseline", "lint-agreement", not lint_ok,
                    detail="fault-free run failed although the analyzer "
                           "proved the program deadlock-free")
            continue
        c.check("baseline", "lint-agreement", lint_ok,
                detail="fault-free run completed but the analyzer "
                       "flagged the program" if not lint_ok else "")

        # -- straggler severity ladder (monotone degradation) ---------
        prev = base.elapsed
        for severity in SEVERITIES:
            plan = FaultPlan(seed=seed, stragglers=(
                Straggler(rank=victim, factor=severity),))
            res, _ = c.run(f"straggler-{severity}", plan)
            if res is None:
                c.check(f"straggler-{severity}", "lint-agreement", False,
                        detail="lossless fault broke a deadlock-free run")
                continue
            c.check(f"straggler-{severity}", "monotone-degradation",
                    res.elapsed >= prev * (1.0 - _REL_EPS)
                    and res.elapsed >= base.elapsed * (1.0 - _REL_EPS),
                    detail=f"{res.elapsed!r} vs previous {prev!r} "
                           f"(baseline {base.elapsed!r})")
            c.check(f"straggler-{severity}", "lossless-completion",
                    not res.degraded,
                    detail=f"failed={res.failed_ranks} "
                           f"stalled={res.stalled_ranks}")
            prev = res.elapsed

        # -- message delay (lossless: must still complete) ------------
        plan = FaultPlan(seed=seed, message_faults=(
            MessageFault(kind="delay", delay_s=5e-6),))
        res, _ = c.run("delay", plan)
        if res is not None:
            c.check("delay", "lint-agreement",
                    (not lint_ok) or not res.degraded,
                    detail=f"failed={res.failed_ranks} "
                           f"stalled={res.stalled_ranks}")
            c.check("delay", "monotone-degradation",
                    res.elapsed >= base.elapsed * (1.0 - _REL_EPS),
                    detail=f"{res.elapsed!r} vs baseline {base.elapsed!r}")
        else:
            c.check("delay", "lint-agreement", not lint_ok,
                    detail="delay fault deadlocked a run the analyzer "
                           "proved deadlock-free")

        # -- message duplication (lossless, burns bandwidth) ----------
        plan = FaultPlan(seed=seed, message_faults=(
            MessageFault(kind="duplicate", probability=0.5),))
        res, _ = c.run("duplicate", plan)
        if res is not None:
            dups = res.fault_stats.duplicates if res.fault_stats else 0
            c.check("duplicate", "lossless-completion", not res.degraded,
                    detail=f"failed={res.failed_ranks} "
                           f"stalled={res.stalled_ranks}")
            c.check("duplicate", "message-accounting",
                    res.messages_sent == base.messages_sent + dups,
                    detail=f"{res.messages_sent} messages vs baseline "
                           f"{base.messages_sent} + {dups} duplicates")
        else:
            c.check("duplicate", "lint-agreement", not lint_ok,
                    detail="duplicate fault deadlocked a run the "
                           "analyzer proved deadlock-free")

        # -- rank crash (lossy: degrade, never abort) -----------------
        plan = FaultPlan(seed=seed, crashes=(
            CrashRank(rank=victim, at=base.elapsed * 0.35),))
        res, _ = c.run("crash", plan)
        if res is not None:
            c.check("crash", "degradation-accounting",
                    victim in res.failed_ranks,
                    detail=f"rank {victim} not in failed_ranks="
                           f"{res.failed_ranks}")
        else:
            c.check("crash", "degradation-accounting", False,
                    detail="crash scenario raised instead of degrading")

        # -- message drop (lossy with probability) --------------------
        plan = FaultPlan(seed=seed, message_faults=(
            MessageFault(kind="drop", probability=0.25, max_events=3),))
        res, _ = c.run("drop", plan)
        if res is not None:
            drops = res.fault_stats.drops if res.fault_stats else 0
            c.check("drop", "degradation-accounting",
                    drops > 0 or not res.degraded,
                    detail=f"degraded (failed={res.failed_ranks}, "
                           f"stalled={res.stalled_ranks}) although "
                           f"no drop fired")
        else:
            c.check("drop", "degradation-accounting", False,
                    detail="drop scenario raised instead of degrading")

    return report
