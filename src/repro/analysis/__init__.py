"""Static analysis: pre-flight lint and performance advice for rank
programs, placements, and experiment configs.

The runtime deadlocks *loudly* when a program is wrong — but only after
burning the wall-clock that led up to the wedge.  This package answers
the same questions **before** execution, along two complementary axes:

**Correctness** (``repro lint``, :mod:`~repro.analysis.analyzer`) —
checks the whole communication structure of each rank's replayed
program (:mod:`repro.runtime.replay`, no simulated time):

* point-to-point matching per (destination, tag) FIFO channel,
  honoring ``ANY_SOURCE`` (:mod:`~repro.analysis.checks`);
* collective congruence across communicator members;
* request-handle hygiene (waits on non-requests, double/never waited);
* rank/tag domain validity;
* order-aware deadlock detection under the runtime's exact
  eager/rendezvous split (:mod:`~repro.analysis.deadlock`);
* placement feasibility, reusing the runtime's own
  :class:`~repro.runtime.placement.JobPlacement` validation;
* kernel-reference validity.

**Performance** (``repro advise``, :mod:`~repro.analysis.advisor`) —
consumes the closed-form model of :mod:`repro.analytic` and reports
where a config's time is predicted to go and which choices leave
performance on the table: infeasible placements, cross-CMG thread
spans, remote serial-init traffic, ECM phase domination with saturating
core counts, load imbalance across rank classes, gather-stride and
working-set anti-patterns, collective-dominated phases, idle cores.
:func:`~repro.analysis.advisor.is_feasible` is the autotuner-facing
pruning predicate built on the same pass.

Findings are structured :class:`~repro.analysis.diagnostics.Diagnostic`
records under the rule ids of :mod:`~repro.analysis.rules`, rendered by
``repro lint`` / ``repro advise`` and enforced as cheap pre-flight
gates by ``run_config``/``run_sweep``
(:func:`~repro.analysis.analyzer.preflight`, always on;
:func:`~repro.analysis.advisor.advise_gate`, opt-in), with verdicts
memoized by config digest and invalidated by model- or
analyzer-fingerprint changes; ``repro lint``/``repro advise`` and the
advise gate also keep them as records of the result cache's log
(:meth:`repro.core.cache.ResultCache.verdict`).
"""

from repro.analysis.advisor import (
    ADVISE_MODES,
    advise_config,
    advise_gate,
    advise_mode,
    is_feasible,
    set_advise_mode,
)
from repro.analysis.analyzer import (
    analyze_config,
    analyze_job,
    analyze_program,
    preflight,
    preflight_enabled,
    set_preflight,
)
from repro.analysis.diagnostics import SEVERITIES, SEVERITY_RANK, \
    Diagnostic, DiagnosticReport
from repro.analysis.rules import (
    ALL_RULES,
    LINT_RULES,
    PERF_RULES,
    analyzer_fingerprint,
)

__all__ = [
    "ADVISE_MODES",
    "ALL_RULES",
    "LINT_RULES",
    "PERF_RULES",
    "SEVERITIES",
    "SEVERITY_RANK",
    "Diagnostic",
    "DiagnosticReport",
    "advise_config",
    "advise_gate",
    "advise_mode",
    "analyze_config",
    "analyze_job",
    "analyze_program",
    "analyzer_fingerprint",
    "is_feasible",
    "preflight",
    "preflight_enabled",
    "set_advise_mode",
    "set_preflight",
]
