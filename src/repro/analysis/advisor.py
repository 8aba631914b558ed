"""Static performance advisor: ECM-grounded anti-pattern analysis.

``repro lint`` (:mod:`repro.analysis.analyzer`) asks *will this config
run correctly*; ``repro advise`` asks *where will its time go, and which
placement/config choices are leaving performance on the table* — without
spending a single event-executor step.  Every finding is derived from
the closed-form model the analytic engine itself scores with
(:func:`repro.analytic.engine.config_breakdown`), so every quantitative
claim in a diagnostic cites the exact numbers the scoring pass uses:
ECM phase times per iteration, bandwidth-saturation knees, fork/join
overheads, collective algorithm times.

The ``perf-*`` rule catalog lives in :mod:`repro.analysis.rules`; one
worked example per rule is in DESIGN.md ("Static performance advisor").
Severity semantics:

* ``error`` — the config cannot execute at all
  (``perf-placement-infeasible``); :func:`is_feasible` is the
  autotuner-facing predicate built on this.
* ``warning`` — executable but a cheap change is predicted to win
  (cross-CMG thread spans, remote serial-init traffic, heavy load
  imbalance, collective domination, idle cores).
* ``info`` — model observations that explain the config's placement on
  the roofline (memory-/L2-boundedness with the saturating core count,
  gather-stride and working-set diagnoses) without implying a fix.

The opt-in pre-flight gate mirrors the lint gate: ``REPRO_ADVISE``
(``off``/``warn``/``error``) or :func:`set_advise_mode` select the mode
globally, ``run_config``/``run_sweep`` accept a per-call override, and
:func:`advise_gate` raises :class:`~repro.errors.AdviseError` when the
report has findings at or above the mode's severity cut (``warn``
blocks on errors, ``error`` blocks on warnings too).
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

if TYPE_CHECKING:
    from repro.analytic.engine import ConfigBreakdown, GroupCost
    from repro.analytic.profile import AppProfile
    from repro.compile.compiler import CompiledKernel
    from repro.core.cache import ResultCache
    from repro.core.experiment import ExperimentConfig
    from repro.machine.topology import Cluster
    from repro.runtime.placement import JobPlacement
from repro.errors import (
    AdviseError,
    ConfigurationError,
    PlacementError,
    ReproError,
)

#: Gate modes accepted by ``run_config``/``run_sweep``/the CLI.
ADVISE_MODES = ("off", "warn", "error")

#: Environment switch carrying the gate mode into sweep workers.
ENV_ADVISE = "REPRO_ADVISE"

# ---------------------------------------------------------------------------
# rule thresholds (module constants so tests and docs can cite them)
# ---------------------------------------------------------------------------
#: Groups below this fraction of their class's compute time are noise.
MIN_GROUP_FRACTION = 0.05
#: max/mean class-time skew above which load imbalance is a warning.
IMBALANCE_WARN = 1.25
#: Communication fraction of a class's step time that warrants a warning.
COLLECTIVE_WARN = 0.50
#: ... and the lower cut where it is still worth an info finding.
COLLECTIVE_INFO = 0.25
#: Cache-line utilization below which gather access is called out even
#: when the latency phase does not dominate (0.5 contiguity on a 256 B
#: A64FX line utilizes 52% of each fetch).
STRIDE_UTIL_WARN = 0.55
#: L2 hit fraction below which the working set counts as spilled.
SPILL_HIT_WARN = 0.50
#: Idle-core fraction of the allocated nodes that warrants a warning.
IDLE_WARN = 0.25


def check_mode(mode: str) -> str:
    if mode not in ADVISE_MODES:
        raise ConfigurationError(
            f"advise mode must be one of {ADVISE_MODES}, got {mode!r}"
        )
    return mode


def advise_mode() -> str:
    """The global gate mode (environment-backed, worker-propagating)."""
    return check_mode(os.environ.get(ENV_ADVISE) or "off")


def set_advise_mode(mode: str) -> None:
    """Set the global gate mode, propagating to worker processes."""
    check_mode(mode)
    if mode == "off":
        os.environ.pop(ENV_ADVISE, None)
    else:
        os.environ[ENV_ADVISE] = mode


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _ns(seconds: float) -> str:
    return f"{seconds * 1e9:.1f} ns/it"


def _gbs(bytes_per_s: float) -> str:
    return f"{bytes_per_s / 1e9:.1f} GB/s"


def _mib(n_bytes: float) -> str:
    return f"{n_bytes / 2**20:.2f} MiB"


def _significant_groups(
        breakdown: ConfigBreakdown) -> Iterator[tuple[int, GroupCost]]:
    """(class_idx, GroupCost) pairs carrying a meaningful time share."""
    for g in breakdown.groups:
        class_compute = breakdown.classes[g.class_idx].compute_s
        if class_compute <= 0:
            continue
        if g.seconds >= MIN_GROUP_FRACTION * class_compute:
            yield g.class_idx, g


def _best_per_kernel(groups: Iterable[GroupCost]) -> dict[str, GroupCost]:
    """Deduplicate groups to the costliest instance per kernel."""
    best: dict[str, GroupCost] = {}
    for g in groups:
        cur = best.get(g.kernel)
        if cur is None or g.seconds > cur.seconds:
            best[g.kernel] = g
    return best


# ---------------------------------------------------------------------------
# the analysis pass
# ---------------------------------------------------------------------------
def _advise_fresh(config: ExperimentConfig) -> DiagnosticReport:
    from repro.analytic import engine as analytic

    report = DiagnosticReport(config.label())

    # --- resolution + feasibility (never touches the event executor) ---
    try:
        cluster = analytic._cluster(config.processor, config.n_nodes)
    except (KeyError, ReproError) as exc:
        report.add(Diagnostic(
            check="config-processor", severity="error",
            message=f"cannot build processor {config.processor!r}: {exc}",
            hint="see `repro list-processors`",
        ))
        return report
    try:
        placement = analytic._placement_table(
            config.processor, config.n_nodes, config.n_ranks,
            config.n_threads, config.allocation, config.binding,
        ).placement
    except PlacementError as exc:
        report.add(Diagnostic(
            check="perf-placement-infeasible", severity="error",
            message=f"{exc} ({config.n_ranks} ranks x {config.n_threads} "
                    f"threads on {cluster.n_nodes}x{cluster.cores_per_node} "
                    f"cores)",
            hint="reduce ranks x threads, relax the binding stride, or add "
                 "nodes; domain-pack pads rank windows to CMG boundaries "
                 "and needs the extra headroom",
        ))
        return report
    try:
        breakdown = analytic.config_breakdown(config)
    except ReproError as exc:
        report.add(Diagnostic(
            check="config-app", severity="error",
            message=f"cannot model {config.app}/{config.dataset}: {exc}",
            hint="see `repro list-apps`",
        ))
        return report

    profile = analytic._profile(config.app, config.dataset, config.n_ranks)
    compiled = analytic._compiled(config.app, config.dataset,
                                  config.options_preset, config.processor)
    census = placement.threads_per_domain
    per_dom_cores = cluster.node.chips[0].domains[0].n_cores

    _check_thread_spans(report, config, cluster, placement, profile,
                        per_dom_cores)
    _check_boundedness(report, cluster, placement, breakdown, profile)
    _check_access_patterns(report, cluster, breakdown, profile, compiled,
                           census, placement)
    _check_load_balance(report, breakdown)
    _check_collectives(report, breakdown)
    _check_subscription(report, config, cluster, placement)
    return report


def _check_thread_spans(report: DiagnosticReport, config: ExperimentConfig,
                        cluster: Cluster, placement: JobPlacement,
                        profile: AppProfile, per_dom_cores: int) -> None:
    """perf-cmg-span + perf-remote-traffic, per rank class."""
    from repro.runtime.openmp import fork_join_overhead

    for cls in profile.classes:
        spanned = placement.domains_spanned(cls.rep_rank)
        if spanned <= 1:
            continue
        if config.n_threads <= per_dom_cores:
            fj_span = fork_join_overhead(config.n_threads, spanned)
            fj_one = fork_join_overhead(config.n_threads, 1)
            report.add(Diagnostic(
                check="perf-cmg-span", severity="warning",
                rank=cls.rep_rank,
                message=f"rank {cls.rep_rank}'s {config.n_threads} threads "
                        f"span {spanned} CMGs although they fit in one "
                        f"({per_dom_cores} cores/CMG); fork/join rises to "
                        f"{fj_span * 1e6:.2f} us/region vs "
                        f"{fj_one * 1e6:.2f} us within one CMG",
                hint="align ranks to CMG boundaries "
                     "(allocation=domain-pack) or pick a ranks x threads "
                     "split that divides the CMG",
            ))
        if config.data_policy == "serial-init":
            home = placement.home_domain(cls.rep_rank)
            home_dom = cluster.node.chips[home[1]].domains[home[2]]
            census = placement.threads_per_domain
            home_active = max(1, census.get(home, 1))
            local = home_dom.memory.per_stream_bandwidth(home_active)
            chip = cluster.node.chips[home[1]]
            remote = local * chip.remote_access_fraction
            away = sum(
                1 for a in placement.thread_cores(cls.rep_rank)
                if (a.node, a.chip, a.domain) != home
            )
            report.add(Diagnostic(
                check="perf-remote-traffic", severity="warning",
                rank=cls.rep_rank,
                message=f"serial-init homes rank {cls.rep_rank}'s data on "
                        f"CMG {home[2]}; {away} of {config.n_threads} "
                        f"threads stream remotely at {_gbs(remote)} vs "
                        f"{_gbs(local)} local "
                        f"({chip.remote_access_fraction:.0%} ring penalty)",
                hint="use data_policy=first-touch, or keep each rank's "
                     "threads inside its home CMG",
            ))


def _check_boundedness(report: DiagnosticReport, cluster: Cluster,
                       placement: JobPlacement, breakdown: ConfigBreakdown,
                       profile: AppProfile) -> None:
    """perf-memory-bound + perf-l2-bound, per costly kernel."""
    significant = [g for _, g in _significant_groups(breakdown)]
    for kernel, g in sorted(_best_per_kernel(significant).items()):
        cls = profile.classes[g.class_idx]
        home = placement.home_domain(cls.rep_rank)
        dom = cluster.node.chips[home[1]].domains[home[2]]
        active = max(1, placement.threads_per_domain.get(home, 1))
        p = g.per_iter
        if g.bound == "dram":
            mem = dom.memory
            sat = max(1, math.ceil(mem.sustained_bandwidth
                                   / mem.single_stream_bandwidth))
            if active >= sat:
                headroom = (f"the {active} active cores already saturate "
                            f"the CMG (knee at {sat}); extra threads add "
                            f"no bandwidth")
            else:
                headroom = (f"{active} of the {sat} saturating cores are "
                            f"active; bandwidth headroom remains")
            report.add(Diagnostic(
                check="perf-memory-bound", severity="info",
                rank=cls.rep_rank,
                message=f"kernel {kernel!r}: DRAM phase {_ns(p['dram'])} "
                        f"vs compute {_ns(p['compute'])} "
                        f"(L2 {_ns(p['l2'])}, L1 {_ns(p['l1'])}) => "
                        f"memory-bound; {dom.memory.kind} sustains "
                        f"{_gbs(mem.sustained_bandwidth)} per CMG at "
                        f"{_gbs(mem.single_stream_bandwidth)}/stream, so "
                        f"{headroom}",
                hint="scatter threads across CMGs to reach more stacks, "
                     "or shrink DRAM traffic (blocking, streaming stores)",
            ))
        elif g.bound == "l2":
            report.add(Diagnostic(
                check="perf-l2-bound", severity="info",
                rank=cls.rep_rank,
                message=f"kernel {kernel!r}: L2 phase {_ns(p['l2'])} vs "
                        f"DRAM {_ns(p['dram'])} and compute "
                        f"{_ns(p['compute'])} => bound by the shared L2 "
                        f"({active} threads share "
                        f"{_mib(dom.l2.capacity_bytes)} per CMG)",
                hint="reduce L2 traffic (register blocking) or spread "
                     "threads over more CMGs to split the L2 load",
            ))


def _check_access_patterns(report: DiagnosticReport, cluster: Cluster,
                           breakdown: ConfigBreakdown, profile: AppProfile,
                           compiled: dict[str, CompiledKernel],
                           census: dict[tuple[int, int, int], int],
                           placement: JobPlacement) -> None:
    """perf-gather-stride + perf-working-set-spill, per costly kernel."""
    significant = [g for _, g in _significant_groups(breakdown)]
    for kernel, g in sorted(_best_per_kernel(significant).items()):
        try:
            lk = compiled[kernel].kernel
        except KeyError:      # unregistered kernels are lint's finding
            continue
        cls = profile.classes[g.class_idx]
        home = placement.home_domain(cls.rep_rank)
        dom = cluster.node.chips[home[1]].domains[home[2]]
        p = g.per_iter

        util = dom.l2.effective_line_utilization(lk.contiguous_fraction)
        if lk.contiguous_fraction < 1.0 and g.bound == "latency":
            report.add(Diagnostic(
                check="perf-gather-stride", severity="warning",
                rank=cls.rep_rank,
                message=f"kernel {kernel!r}: the exposed gather latency "
                        f"phase {_ns(p['latency'])} dominates (DRAM "
                        f"{_ns(p['dram'])}, compute {_ns(p['compute'])}); "
                        f"non-contiguous access (contiguous fraction "
                        f"{lk.contiguous_fraction:.2f}) uses {util:.0%} "
                        f"of each {dom.l2.line_bytes} B line => "
                        f"{1 / util:.1f}x traffic inflation below L1",
                hint="sort/reorder the indirection to raise spatial "
                     "locality, or use software pipelining to hide the "
                     "gather latency",
            ))
        elif util < STRIDE_UTIL_WARN:
            report.add(Diagnostic(
                check="perf-gather-stride", severity="info",
                rank=cls.rep_rank,
                message=f"kernel {kernel!r}: gather access (contiguous "
                        f"fraction {lk.contiguous_fraction:.2f}) consumes "
                        f"{util:.0%} of each {dom.l2.line_bytes} B line "
                        f"=> {1 / util:.1f}x traffic inflation below L1 "
                        f"(exposed latency {_ns(p['latency'])} vs "
                        f"{g.bound} phase {_ns(p[g.bound])})",
                hint="sort/reorder the indirection to raise spatial "
                     "locality",
            ))

        if lk.working_set_bytes > 0 and lk.streaming_fraction < 1.0:
            pg = profile.classes[g.class_idx].compute[
                breakdown.class_groups(g.class_idx).index(g)]
            ws = lk.working_set_bytes * pg.working_set_scale
            hit = dom.l2.hit_fraction(ws)
            if hit < SPILL_HIT_WARN:
                severity = "warning" if g.bound == "dram" else "info"
                report.add(Diagnostic(
                    check="perf-working-set-spill", severity=severity,
                    rank=cls.rep_rank,
                    message=f"kernel {kernel!r}: per-thread working set "
                            f"{_mib(ws)} vs {_mib(dom.l2.capacity_bytes)} "
                            f"shared L2 => {hit:.0%} L2 hit rate; reuse "
                            f"traffic falls through to DRAM (DRAM phase "
                            f"{_ns(p['dram'])})",
                    hint="block the loop to an L2-resident tile, or give "
                         "each thread a smaller partition (more ranks, "
                         "fewer threads)",
                ))


def _check_load_balance(report: DiagnosticReport,
                        breakdown: ConfigBreakdown) -> None:
    """perf-load-imbalance across rank equivalence classes."""
    if len(breakdown.classes) < 2:
        return
    totals = [c.total_s for c in breakdown.classes]
    mean = sum(t * c.n_ranks for t, c in zip(totals, breakdown.classes)) \
        / sum(c.n_ranks for c in breakdown.classes)
    if mean <= 0:
        return
    worst = max(breakdown.classes, key=lambda c: c.total_s)
    skew = worst.total_s / mean
    if skew > IMBALANCE_WARN:
        report.add(Diagnostic(
            check="perf-load-imbalance", severity="warning",
            rank=worst.rep_rank,
            message=f"rank class {worst.class_idx} (rep rank "
                    f"{worst.rep_rank}, {worst.n_ranks} rank(s)) finishes "
                    f"at {worst.total_s * 1e3:.2f} ms vs "
                    f"{mean * 1e3:.2f} ms rank-weighted mean "
                    f"({skew:.2f}x skew); every other class waits at the "
                    f"next synchronization point",
            hint="rebalance the decomposition or shift work off the "
                 "named class",
        ))


def _check_collectives(report: DiagnosticReport,
                       breakdown: ConfigBreakdown) -> None:
    """perf-collective-dominated, per rank class."""
    for c in breakdown.classes:
        if c.total_s <= 0 or not c.comm_items:
            continue
        frac = c.comm_s / c.total_s
        if frac < COLLECTIVE_INFO:
            continue
        severity = "warning" if frac >= COLLECTIVE_WARN else "info"
        label, seconds = max(c.comm_items, key=lambda item: item[1])
        report.add(Diagnostic(
            check="perf-collective-dominated", severity=severity,
            rank=c.rep_rank,
            message=f"communication is {frac:.0%} of rank class "
                    f"{c.class_idx}'s step time "
                    f"({c.comm_s * 1e3:.2f} of {c.total_s * 1e3:.2f} ms); "
                    f"largest item: {label} at {seconds * 1e3:.2f} ms",
            hint="fewer, larger messages; overlap exchanges with "
                 "compute; or use fewer ranks x more threads",
        ))


def _check_subscription(report: DiagnosticReport, config: ExperimentConfig,
                        cluster: Cluster,
                        placement: JobPlacement) -> None:
    """perf-undersubscribed: idle cores on the allocated nodes."""
    nodes_used = {a.node for addrs in placement.thread_map.values()
                  for a in addrs}
    available = len(nodes_used) * cluster.cores_per_node
    used = config.n_ranks * config.n_threads
    idle = available - used
    if idle <= 0:
        return
    frac = idle / available
    severity = "warning" if frac >= IDLE_WARN else "info"
    report.add(Diagnostic(
        check="perf-undersubscribed", severity=severity,
        message=f"placement uses {used} of {available} cores on "
                f"{len(nodes_used)} allocated node(s) ({frac:.0%} idle)",
        hint="raise ranks x threads to cover the node, or release the "
             "unused nodes",
    ))


# ---------------------------------------------------------------------------
# caching front door + gate
# ---------------------------------------------------------------------------
_memo: dict[str, DiagnosticReport] = {}


def clear_memos() -> None:
    """Drop process-level advisor memos (tests patching the model)."""
    _memo.clear()


def _advise_key(config: ExperimentConfig) -> tuple[ExperimentConfig, str]:
    # Tagged so advise reports can never alias lint reports for the same
    # config inside one cache log.
    return (config, "advise")


def _advise_digest(config: ExperimentConfig) -> str:
    from repro.core.cache import config_digest

    return config_digest(_advise_key(config))


def advise_config(config: ExperimentConfig,
                  cache: ResultCache | None = None) -> DiagnosticReport:
    """Statically analyze one config's predicted performance.

    ``cache`` is an optional persistent
    :class:`~repro.core.cache.ResultCache`; advise reports are verdict
    records of its log beside lint reports, under distinct keys, and
    both are invalidated by model-fingerprint or analyzer-fingerprint
    changes.  Verdicts are additionally memoized per process, so the
    autotuner can call :func:`is_feasible` in a tight loop.
    """
    digest = _advise_digest(config)
    report = _memo.get(digest)
    if report is not None:
        return report
    if cache is not None:
        report = cache.verdict(_advise_key(config))
        if report is not None:
            _memo[digest] = report
            return report
    report = _advise_fresh(config)
    _memo[digest] = report
    if cache is not None:
        cache.put_verdict(_advise_key(config), report)
    return report


def is_feasible(config: ExperimentConfig,
                cache: ResultCache | None = None) -> Diagnostic | None:
    """The autotuner's pruning predicate.

    Returns ``None`` when the config can execute, else the first
    error-severity :class:`Diagnostic` explaining why it cannot —
    derived entirely from the closed-form model, never from the event
    executor.
    """
    report = advise_config(config, cache)
    errors = report.errors
    return errors[0] if errors else None


def advise_gate(config: ExperimentConfig,
                cache: ResultCache | None = None,
                mode: str | None = None) -> None:
    """Pre-flight gate for ``run_config``/``run_sweep``.

    Raises :class:`~repro.errors.AdviseError` when the report carries
    findings at or above the mode's cut: ``warn`` blocks on errors,
    ``error`` blocks on warnings too.  ``mode=None`` reads the global
    :func:`advise_mode`; ``off`` is a no-op.
    """
    mode = advise_mode() if mode is None else check_mode(mode)
    if mode == "off":
        return
    report = advise_config(config, cache=cache)
    cut = "error" if mode == "warn" else "warning"
    blocking = report.at_least(cut)
    if blocking:
        lines = [f"pre-flight advise failed for {report.subject} "
                 f"({len(blocking)} finding(s) at severity >= {cut}; "
                 f"inspect with `repro advise` or disable with "
                 f"advise='off'):"]
        lines.extend(d.render() for d in blocking)
        raise AdviseError("\n".join(lines), diagnostics=tuple(blocking))
