"""Analysis orchestration: programs, jobs, and configs in; reports out.

Three entry points at increasing altitude:

* :func:`analyze_program` — check a bare rank-program factory (the unit
  the tests seed bugs into);
* :func:`analyze_job` — check an assembled
  :class:`~repro.runtime.executor.Job`, taking the eager threshold and
  communicators from the job's cluster;
* :func:`analyze_config` — the full front door: placement feasibility
  (reusing :class:`~repro.runtime.placement.JobPlacement` — the exact
  logic the runtime applies), job assembly, then program analysis, with
  every constructor failure converted to a diagnostic instead of an
  exception.

:func:`preflight` is the gate ``run_config``/``run_sweep`` call before
simulating: it memoizes verdicts per config digest (in-process, plus the
persistent :class:`~repro.analysis.cache.LintCache` when a cache
directory is in play) and raises :class:`~repro.errors.LintError` when
the report contains error-severity findings.  ``REPRO_NO_LINT=1`` (or
:func:`set_preflight`) disables the gate — the environment variable
travels into sweep worker processes.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Iterator

from repro.analysis import checks
from repro.analysis.deadlock import find_deadlocks
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.trace import DEFAULT_MAX_OPS, ProgramTrace, trace_program
from repro.errors import LintError, ReproError
from repro.runtime.executor import Job

if TYPE_CHECKING:
    from repro.analysis.cache import LintCache
    from repro.core.experiment import ExperimentConfig

#: Environment switch: set to any non-empty value to skip the pre-flight.
ENV_NO_LINT = "REPRO_NO_LINT"


def analyze_program(factory: Callable[[int, int], Iterator],
                    n_ranks: int, *,
                    communicators: dict[str, tuple[int, ...]] | None = None,
                    eager_threshold: float = 0.0,
                    subject: str = "program",
                    max_ops: int = DEFAULT_MAX_OPS) -> DiagnosticReport:
    """Statically check one rank-program factory.

    ``eager_threshold`` defaults to 0 — i.e. every send treated as
    rendezvous, the *strictest* deadlock model.  Pass the target
    network's threshold (as :func:`analyze_job` does) to permit
    eager-buffered cyclic sends exactly where the runtime does.
    """
    return _analyze_program(factory, n_ranks, communicators,
                            eager_threshold, subject, max_ops)[0]


def _analyze_program(factory: Callable[[int, int], Iterator],
                     n_ranks: int,
                     communicators: dict[str, tuple[int, ...]] | None,
                     eager_threshold: float, subject: str, max_ops: int,
                     ) -> tuple[DiagnosticReport, dict[int, ProgramTrace]]:
    """:func:`analyze_program`, also returning the traces it built."""
    report = DiagnosticReport(subject)
    comms: dict[str, tuple[int, ...]] = {"world": tuple(range(n_ranks))}
    for name, members in (communicators or {}).items():
        members = tuple(members)
        if not members or len(set(members)) != len(members) or \
                any(not 0 <= r < n_ranks for r in members):
            report.add(Diagnostic(
                check="communicator-invalid", severity="error",
                message=f"communicator {name!r} has invalid members "
                        f"{members} for {n_ranks} ranks",
                hint="members must be unique ranks in 0..n_ranks-1",
            ))
            continue
        comms[name] = members

    traces = trace_program(factory, n_ranks, max_ops)
    report.extend(checks.check_programs(traces))
    report.extend(checks.check_domains(traces, n_ranks, comms))
    report.extend(checks.check_requests(traces))
    report.extend(checks.check_p2p_matching(traces, n_ranks))
    report.extend(checks.check_collectives(traces, comms))
    if not report.errors:
        # structure is sound — worth asking the order-aware question;
        # running it after structural errors would only cascade noise
        report.extend(find_deadlocks(
            traces, eager_threshold=eager_threshold, communicators=comms))
    return report, traces


def analyze_job(job: Job,
                max_ops: int = DEFAULT_MAX_OPS) -> DiagnosticReport:
    """Statically check an assembled job against its own cluster."""
    report, traces = _analyze_program(
        job.program, job.placement.n_ranks, job.communicators,
        float(job.cluster.network.rendezvous_threshold_bytes),
        job.name, max_ops,
    )
    report.extend(_check_kernel_refs(job, traces))
    return report


def _check_kernel_refs(job: Job, traces: dict[int, ProgramTrace],
                       ) -> list[Diagnostic]:
    """Every Compute must name a registered kernel (the runtime fails
    mid-run with SimulationError; the analyzer fails before it)."""
    from repro.runtime import program as ops

    known = set(job.kernels)
    out: list[Diagnostic] = []
    seen: set[str] = set()
    n = job.placement.n_ranks
    for rank in (0, n - 1) if n > 1 else (0,):
        for rec in traces[rank].ops:
            if isinstance(rec.op, ops.Compute) and \
                    rec.op.kernel not in known and \
                    rec.op.kernel not in seen:
                seen.add(rec.op.kernel)
                out.append(Diagnostic(
                    check="unknown-kernel", severity="error",
                    rank=rec.rank, op_index=rec.index, op=rec.describe(),
                    message=f"Compute references unregistered kernel "
                            f"{rec.op.kernel!r}",
                    hint=f"registered kernels: {sorted(known)}",
                ))
    return out


def analyze_config(config: ExperimentConfig,
                   cache: LintCache | None = None,
                   max_ops: int = DEFAULT_MAX_OPS) -> DiagnosticReport:
    """Full pre-flight of one :class:`ExperimentConfig`.

    Placement feasibility reuses the runtime's own
    :class:`~repro.runtime.placement.JobPlacement` validation; any
    :class:`~repro.errors.ReproError` raised while assembling the
    cluster, placement, or job becomes a diagnostic.  ``cache`` is an
    optional :class:`~repro.analysis.cache.LintCache`.
    """
    from repro.core.cache import config_digest

    digest = config_digest(config)
    if cache is not None:
        cached = cache.get(digest)
        if cached is not None:
            return cached

    report = _analyze_config_fresh(config, max_ops)
    if cache is not None:
        cache.put(digest, report)
    return report


def _analyze_config_fresh(config: ExperimentConfig,
                          max_ops: int) -> DiagnosticReport:
    from repro.errors import PlacementError
    from repro.machine import catalog
    from repro.miniapps import by_name
    from repro.runtime.placement import JobPlacement

    subject = config.label()
    report = DiagnosticReport(subject)
    try:
        cluster = catalog.by_name(config.processor,
                                  n_nodes=config.n_nodes)
    except (KeyError, ReproError) as exc:
        report.add(Diagnostic(
            check="config-processor", severity="error",
            message=f"cannot build processor {config.processor!r}: {exc}",
            hint="see `repro list-processors`",
        ))
        return report
    try:
        app = by_name(config.app)
        app.dataset(config.dataset)
    except (KeyError, ReproError) as exc:
        report.add(Diagnostic(
            check="config-app", severity="error",
            message=f"cannot resolve app/dataset "
                    f"{config.app}/{config.dataset}: {exc}",
            hint="see `repro list-apps`",
        ))
        return report
    try:
        placement = JobPlacement(
            cluster, config.n_ranks, config.n_threads,
            allocation=config.allocation, binding=config.binding,
        )
    except PlacementError as exc:
        report.add(Diagnostic(
            check="placement-infeasible", severity="error",
            message=str(exc),
            hint="reduce ranks x threads, relax the binding stride, or "
                 "add nodes; domain-pack pads rank windows to CMG "
                 "boundaries and needs the extra headroom",
        ))
        return report
    try:
        job = app.build_job(
            cluster, placement, dataset=config.dataset,
            options=config.options, data_policy=config.data_policy,
        )
    except ReproError as exc:
        report.add(Diagnostic(
            check="config-job", severity="error",
            message=f"cannot assemble the job: {exc}",
            hint="the app rejects this rank count / dataset combination",
        ))
        return report
    job_report = analyze_job(job, max_ops)
    report.extend(job_report.diagnostics)
    return report


# ----------------------------------------------------------------------
# the pre-flight gate
# ----------------------------------------------------------------------
_enabled = not os.environ.get(ENV_NO_LINT)
_verdicts: dict[str, tuple[str, ...]] = {}      # digest -> error lines


def preflight_enabled() -> bool:
    return _enabled


def set_preflight(enabled: bool) -> None:
    """Enable/disable the pre-flight gate, propagating to worker
    processes via the environment."""
    global _enabled
    _enabled = enabled
    if enabled:
        os.environ.pop(ENV_NO_LINT, None)
    else:
        os.environ[ENV_NO_LINT] = "1"


def preflight(config: ExperimentConfig,
              lint_cache: LintCache | None = None) -> None:
    """Raise :class:`~repro.errors.LintError` if ``config`` has
    error-severity findings; warnings pass silently.

    Verdicts are memoized per config digest for the process lifetime, so
    sweeping the same config repeatedly pays for one analysis.
    """
    from repro.core.cache import config_digest

    digest = config_digest(config)
    cached = _verdicts.get(digest)
    if cached is not None:
        if cached:
            raise LintError("\n".join(cached))
        return
    report = analyze_config(config, cache=lint_cache)
    errors = report.errors
    if errors:
        lines = (f"pre-flight lint failed for {report.subject} "
                 f"({len(errors)} error(s); rerun with `repro lint` or "
                 f"skip with --no-lint):",)
        lines += tuple(d.render() for d in errors)
        _verdicts[digest] = lines
        raise LintError("\n".join(lines), diagnostics=tuple(errors))
    _verdicts[digest] = ()
