"""fapp-style cycle accounting and counter/analytic cross-validation.

Three consumers of the simulated PMU live here:

* :func:`cycle_accounting_table` — the stacked per-region breakdown a
  Fujitsu PA report prints: what fraction of each region's cycles the
  FP pipes, L1D, L2, memory, dependence chains and parallel overhead
  account for.  The categories sum to total cycles by construction
  (:mod:`repro.perf.events`); the table asserts it anyway.
* :func:`counter_roofline` / :func:`roofline_crosscheck_table` — place
  each profiled region on the machine roofline *from its counters*
  (flops / memory bytes / core-seconds), next to the analytic
  :func:`repro.core.analysis.kernel_roofline_point` placement.
* :func:`cross_validate_counters` / :func:`validate_counters` — the CI
  gate (``repro validate --counters``).  The tight pass re-derives
  counters from the exact :class:`~repro.kernels.timing.PhaseTiming`
  the analytic roofline used and demands agreement to
  :data:`TIGHT_TOL`; the run-level pass profiles whole miniapp runs and
  checks global conservation (counter flops == executor flops, counter
  memory bytes == executor DRAM bytes, attributed cycles == simulated
  time x frequency) plus roofline agreement to :data:`RUN_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.compile.options import CompilerOptions
from repro.core.analysis import (
    kernel_roofline_point,
    machine_roofline,
    roofline_phase,
)
from repro.core.report import Table
from repro.errors import SimulationError
from repro.machine.topology import Cluster
from repro.perf.events import STALL_CATEGORIES, derive_counters
from repro.perf.profile import Profile, profile_job

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.analysis import RooflinePoint

#: Cycle-accounting categories (alias of the event model's stall
#: categories — one name for writers, one for readers).
CYCLE_CATEGORIES = STALL_CATEGORIES

#: Relative tolerance of the tight (phase-level) cross-validation.  The
#: counter path re-expresses the same PhaseTiming the analytic roofline
#: used, so disagreement here means the re-expression itself drifted.
TIGHT_TOL = 0.02

#: Relative tolerance of the run-level roofline agreement.  Whole runs
#: add fork/join overhead, schedule imbalance, co-resident working-set
#: effects and serial regions the single-phase analytic point does not
#: model, so the band is wider — same spirit as comparing a measured
#: fapp profile against a first-principles roofline.
RUN_TOL = 0.5

#: Relative tolerance of the conservation identities (pure float noise).
_EXACT_TOL = 1e-9


def _rel(a: float, b: float) -> float:
    """Relative difference, safe at zero."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


# ----------------------------------------------------------------------
# cycle accounting
# ----------------------------------------------------------------------
def cycle_accounting_table(profile: Profile) -> Table:
    """Per-region stacked cycle breakdown (percent per stall category).

    Raises :class:`~repro.errors.SimulationError` if any region's
    categories fail to sum to its total cycles — the conservation
    identity the event model guarantees.
    """
    meta = profile.meta
    t = Table(
        f"cycle accounting: {meta.get('job', '?')} on "
        f"{meta.get('processor', '?')}",
        ["region", "Gcycles"] + [f"{c} %" for c in CYCLE_CATEGORIES],
        note="critical-thread cycles summed over ranks; "
             "categories sum to 100% of each region's cycles",
    )
    regions = sorted(profile.regions().values(),
                     key=lambda rp: -rp.counters.cycles)
    for rp in regions:
        stalls = rp.counters.stall_cycles()
        total = rp.counters.cycles
        if _rel(sum(stalls.values()), total) > _EXACT_TOL:
            raise SimulationError(
                f"cycle accounting broken for region {rp.name!r}: "
                f"categories sum to {sum(stalls.values()):.6e}, "
                f"total is {total:.6e}"
            )
        if total <= 0:
            continue
        t.add(rp.name, total / 1e9,
              *[100.0 * stalls[c] / total for c in CYCLE_CATEGORIES])
    grand = profile.total_counters()
    if grand.cycles > 0:
        stalls = grand.stall_cycles()
        t.add("TOTAL", grand.cycles / 1e9,
              *[100.0 * stalls[c] / grand.cycles for c in CYCLE_CATEGORIES])
    return t


# ----------------------------------------------------------------------
# counter-derived roofline
# ----------------------------------------------------------------------
#: Stall category -> timing-model bound vocabulary.
_STALL_TO_BOUND = {
    "compute": "compute",
    "l1d": "l1",
    "l2": "l2",
    "memory": "dram",
    "dependence": "latency",
    "overhead": "compute",
}


@dataclass(frozen=True)
class CounterRooflinePoint:
    """A region's roofline placement computed purely from its counters.

    Mirrors :class:`repro.core.analysis.RooflinePoint` so the two are
    directly comparable; ``seconds`` is the region's summed-over-ranks
    wall time (the weight for app-level aggregation).
    """

    kernel: str
    arithmetic_intensity: float      # counter flops per counter mem byte
    attainable_gflops: float         # per-core ceiling at that intensity
    achieved_gflops: float           # counter flops / core-seconds
    bound: str                       # dominant stall, in bound vocabulary
    seconds: float

    @property
    def memory_bound(self) -> bool:
        return self.bound in ("dram", "l2", "latency")


def counter_roofline(profile: Profile,
                     cluster: Cluster) -> list[CounterRooflinePoint]:
    """One :class:`CounterRooflinePoint` per profiled compute region."""
    roof = machine_roofline(cluster)
    points = []
    for rp in profile.regions().values():
        c = rp.counters
        if c.flops <= 0:
            continue
        ai = (c.flops / c.mem_bytes) if c.mem_bytes > 0 else float("inf")
        points.append(CounterRooflinePoint(
            kernel=rp.name,
            arithmetic_intensity=ai,
            attainable_gflops=roof.attainable(ai),
            achieved_gflops=rp.per_core_gflops,
            bound=_STALL_TO_BOUND[rp.dominant_stall],
            seconds=rp.seconds_total,
        ))
    return points


def roofline_crosscheck_table(
    profile: Profile,
    cluster: Cluster,
    app,
    dataset: str = "as-is",
    options: CompilerOptions | None = None,
    tol: float = RUN_TOL,
) -> Table:
    """Counter-derived vs analytic roofline, region by region.

    ``app`` is the :class:`~repro.miniapps.base.MiniApp` the profile ran
    (needed to rebuild the analytic points for its kernels).
    """
    ds = app.dataset(dataset)
    analytic = {
        k.name: kernel_roofline_point(k, cluster, options)
        for k in app.kernels(ds).values()
    }
    t = Table(
        f"roofline cross-check: {profile.meta.get('job', '?')} on "
        f"{cluster.name}",
        ["kernel", "AI ctr", "AI model", "GF/s ctr", "GF/s model",
         "ratio", f"within {tol:.0%}"],
        note="ctr = from PMU counters of the profiled run (per core); "
             "model = analytic single-phase roofline placement",
    )
    for pt in sorted(counter_roofline(profile, cluster),
                     key=lambda p: -p.seconds):
        ref = analytic.get(pt.kernel)
        if ref is None:
            continue
        ratio = (pt.achieved_gflops / ref.achieved_gflops
                 if ref.achieved_gflops > 0 else float("inf"))
        ok = (_rel(pt.arithmetic_intensity, ref.arithmetic_intensity) <= tol
              and _rel(pt.achieved_gflops, ref.achieved_gflops) <= tol)
        t.add(pt.kernel, pt.arithmetic_intensity, ref.arithmetic_intensity,
              pt.achieved_gflops, ref.achieved_gflops, ratio,
              "yes" if ok else "NO")
    return t


# ----------------------------------------------------------------------
# cross-validation (the `repro validate --counters` CI gate)
# ----------------------------------------------------------------------
def cross_validate_counters(
    cluster: Cluster,
    apps: list[str] | None = None,
    options: CompilerOptions | None = None,
    tol: float = TIGHT_TOL,
) -> DiagnosticReport:
    """Tight phase-level check: counters re-derived from the analytic
    roofline's own PhaseTiming must reproduce its AI and GFLOP/s.

    Emits ``counter-*`` diagnostics; an empty report means the counter
    path is a faithful re-expression of the timing model for every
    kernel of every requested miniapp.
    """
    from repro.miniapps import SUITE, by_name

    report = DiagnosticReport(
        f"counter cross-validation on {cluster.name} (tol {tol:.1%})")
    names = sorted(SUITE) if apps is None else list(apps)
    core = cluster.node.chips[0].domains[0].core
    for app_name in names:
        app = by_name(app_name)
        ds = app.dataset("as-is")
        for kernel in app.kernels(ds).values():
            analytic = kernel_roofline_point(kernel, cluster, options)
            ck, phase = roofline_phase(kernel, cluster, options)
            c = derive_counters(ck, core, phase)

            stalls = sum(c.stall_cycles().values())
            if _rel(stalls, c.cycles) > _EXACT_TOL:
                report.add(Diagnostic(
                    check="counter-conservation", severity="error",
                    message=f"{app_name}/{kernel.name}: stall categories "
                            f"sum to {stalls:.6e} cycles, total is "
                            f"{c.cycles:.6e}",
                    hint="the telescoping attribution in "
                         "repro.perf.events.derive_counters lost a term",
                ))
            expected_cycles = phase.seconds * core.freq_hz
            if _rel(c.cycles, expected_cycles) > _EXACT_TOL:
                report.add(Diagnostic(
                    check="counter-conservation", severity="error",
                    message=f"{app_name}/{kernel.name}: {c.cycles:.6e} "
                            f"cycles vs time x frequency "
                            f"{expected_cycles:.6e}",
                    hint="derive_counters disagrees with PhaseTiming.seconds",
                ))

            if c.mem_bytes > 0:
                ai = c.flops / c.mem_bytes
                if _rel(ai, analytic.arithmetic_intensity) > tol:
                    report.add(Diagnostic(
                        check="counter-roofline-ai", severity="error",
                        message=f"{app_name}/{kernel.name}: counter AI "
                                f"{ai:.4f} vs analytic "
                                f"{analytic.arithmetic_intensity:.4f}",
                        hint="memory byte counters drifted from the "
                             "working-set model's DRAM traffic",
                    ))
            gf = (c.flops / (c.cycles / core.freq_hz) / 1e9
                  if c.cycles > 0 else 0.0)
            if _rel(gf, analytic.achieved_gflops) > tol:
                report.add(Diagnostic(
                    check="counter-roofline-gflops", severity="error",
                    message=f"{app_name}/{kernel.name}: counter "
                            f"{gf:.2f} GF/s vs analytic "
                            f"{analytic.achieved_gflops:.2f}",
                    hint="flop or cycle counters drifted from the ECM "
                         "timing the roofline placed",
                ))
    return report


def _run_level_checks(cluster: Cluster, app_name: str,
                      n_ranks: int, n_threads: int,
                      tol: float) -> list[Diagnostic]:
    """Profile one whole run and check the global conservation laws."""
    from repro.miniapps import by_name
    from repro.runtime.placement import JobPlacement

    diags: list[Diagnostic] = []
    app = by_name(app_name)
    placement = JobPlacement(cluster, n_ranks, n_threads)
    result, profile = profile_job(app.build_job(cluster, placement, "as-is"))
    total = profile.total_counters()

    if _rel(total.flops, result.total_flops) > 1e-6:
        diags.append(Diagnostic(
            check="counter-flops-conservation", severity="error",
            message=f"{app_name}: counter flops {total.flops:.6e} vs "
                    f"executor total {result.total_flops:.6e}",
            hint="a compute region was counted twice or missed by the "
                 "profiling hooks",
        ))
    if _rel(total.mem_bytes, result.total_dram_bytes) > 1e-6:
        diags.append(Diagnostic(
            check="counter-bytes-conservation", severity="error",
            message=f"{app_name}: counter memory bytes "
                    f"{total.mem_bytes:.6e} vs executor DRAM total "
                    f"{result.total_dram_bytes:.6e}",
            hint="read/write byte attribution no longer sums to the "
                 "region's DRAM traffic",
        ))
    for rank, finish in result.rank_finish.items():
        expected = finish * profile.rank_freq[rank]
        got = profile.attributed_cycles(rank)
        if _rel(got, expected) > 1e-6:
            diags.append(Diagnostic(
                check="counter-cycle-conservation", severity="error",
                rank=rank,
                message=f"{app_name}: rank {rank} attributes {got:.6e} "
                        f"cycles, simulated time x frequency is "
                        f"{expected:.6e}",
                hint="an executor interval (compute/wait/io/sleep) is "
                     "not reaching the profile sink",
            ))

    # Roofline agreement at run level: time-weighted achieved GF/s of the
    # profiled regions vs the analytic points of the same kernels.
    ds = app.dataset("as-is")
    analytic = {
        k.name: kernel_roofline_point(k, cluster)
        for k in app.kernels(ds).values()
    }
    points = counter_roofline(profile, cluster)
    weight = sum(p.seconds for p in points if p.kernel in analytic)
    if weight > 0:
        got_gf = sum(p.achieved_gflops * p.seconds
                     for p in points if p.kernel in analytic) / weight
        ref_gf = sum(analytic[p.kernel].achieved_gflops * p.seconds
                     for p in points if p.kernel in analytic) / weight
        if _rel(got_gf, ref_gf) > tol:
            diags.append(Diagnostic(
                check="counter-roofline-run", severity="error",
                message=f"{app_name}: run-level counter roofline "
                        f"{got_gf:.2f} GF/s/core vs analytic "
                        f"{ref_gf:.2f} (tol {tol:.0%})",
                hint="profiled runs should land near the analytic "
                     "roofline; a placement/contention regression moved "
                     "them",
            ))
    return diags


def validate_counters(apps: list[str] | None = None,
                      run_tol: float = RUN_TOL) -> DiagnosticReport:
    """The full counter gate: tight phase-level cross-validation on the
    A64FX plus run-level conservation for every miniapp.

    ``repro validate --counters`` renders this report and CI fails on
    any error in it.
    """
    from repro.machine import catalog
    from repro.miniapps import SUITE

    cluster = catalog.a64fx()
    report = cross_validate_counters(cluster, apps)
    report.subject = (f"counter validation on {cluster.name} "
                      f"(tight {TIGHT_TOL:.0%}, run {run_tol:.0%})")
    names = sorted(SUITE) if apps is None else list(apps)
    for app_name in names:
        report.extend(_run_level_checks(cluster, app_name, 4, 12, run_tol))
    return report
