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

:func:`preflight` is the gate every event execution calls before
simulating: it memoizes verdicts per config digest in-process and
raises :class:`~repro.errors.LintError` when the report contains
error-severity findings (``repro lint`` calls :func:`analyze_config`
instead, keeping verdicts in a persistent
:class:`~repro.core.cache.ResultCache`).
Below the verdicts, :func:`analyze_config` memoizes the program
analysis per *program shape* — everything ``analyze_job``'s findings
depend on — so configs that differ only in threads, binding,
allocation, preset or data policy share one trace; placement
feasibility and job assembly stay per config.  Both memos are bounded and emptied by :func:`clear_memos`.
``REPRO_NO_LINT=1`` (or :func:`set_preflight`) disables the gate — the
environment variable travels into sweep worker processes.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterator

from repro.analysis.checks import Traces, check_traces
from repro.analysis.deadlock import find_deadlocks
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.rules import analyzer_fingerprint
from repro.errors import LintError, ReproError
from repro.runtime.executor import Job
from repro.runtime.replay import collector_paused, trace_program

if TYPE_CHECKING:
    from repro.core.cache import ResultCache
    from repro.core.experiment import ExperimentConfig

#: Environment switch: set to any non-empty value to skip the pre-flight.
ENV_NO_LINT = "REPRO_NO_LINT"


def analyze_program(factory: Callable[[int, int], Iterator],
                    n_ranks: int, *,
                    communicators: dict[str, tuple[int, ...]] | None = None,
                    eager_threshold: float = 0.0,
                    subject: str = "program") -> DiagnosticReport:
    """Statically check one rank-program factory.

    ``eager_threshold`` defaults to 0 — i.e. every send treated as
    rendezvous, the *strictest* deadlock model.  Pass the target
    network's threshold (as :func:`analyze_job` does) to permit
    eager-buffered cyclic sends exactly where the runtime does.
    """
    return _analyze_program(factory, n_ranks, communicators,
                            eager_threshold, subject)


def _analyze_program(factory: Callable[[int, int], Iterator],
                     n_ranks: int,
                     communicators: dict[str, tuple[int, ...]] | None,
                     eager_threshold: float, subject: str,
                     kernels: Collection[str] | None = None,
                     keep: Traces | None = None) -> DiagnosticReport:
    """:func:`analyze_program`, plus the kernel-reference check when
    ``kernels`` is given (reported after the deadlock search); ``keep``
    receives the traces."""
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

    with collector_paused():
        traces = trace_program(factory, n_ranks)
        structure, kernel_refs = check_traces(traces, n_ranks, comms,
                                              kernels)
        report.extend(structure)
        if not report.errors:
            # structure is sound — worth asking the order-aware question;
            # running it after structural errors would only cascade noise
            report.extend(find_deadlocks(
                traces, eager_threshold=eager_threshold,
                communicators=comms))
        if keep is not None:
            keep.update(traces)     # the caller keeps the collector paused
        del traces      # freed before the collector sees it as young
    report.extend(kernel_refs)
    return report


def analyze_job(job: Job, keep: Traces | None = None) -> DiagnosticReport:
    """Statically check an assembled job against its own cluster.

    ``keep``, when given, receives the replayed rank programs.
    """
    return _analyze_program(
        job.program, job.placement.n_ranks, job.communicators,
        float(job.cluster.network.rendezvous_threshold_bytes),
        job.name, job.kernels, keep,
    )


def analyze_config(config: ExperimentConfig,
                   cache: ResultCache | None = None) -> DiagnosticReport:
    """Full pre-flight of one :class:`ExperimentConfig`.

    Placement feasibility reuses the runtime's own
    :class:`~repro.runtime.placement.JobPlacement` validation; any
    :class:`~repro.errors.ReproError` raised while assembling the
    cluster, placement, or job becomes a diagnostic.  ``cache`` is an
    optional persistent :class:`~repro.core.cache.ResultCache` whose
    log keeps the verdict under the config's own key.
    """
    report = cache.verdict(config) if cache is not None else None
    if report is None:
        report = _analyze_config_fresh(config, None)[0]
        if cache is not None:
            cache.put_verdict(config, report)
    return report


def _analyze_config_fresh(config: ExperimentConfig, keep: Traces | None,
                          ) -> tuple[DiagnosticReport, Job | None]:
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
        return report, None
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
        return report, None
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
        return report, None
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
        return report, None
    report.extend(_job_findings(app, config.dataset, job, keep))
    return report, job


# ----------------------------------------------------------------------
# in-process memos
# ----------------------------------------------------------------------
#: Entries each in-process memo keeps; the oldest goes first.
MEMO_SIZE = 1024
_verdicts: dict[str, tuple[str, ...]] = {}      # digest -> error lines
_shapes: dict[tuple, tuple[Diagnostic, ...]] = {}   # shape -> findings
_memo_lock = threading.Lock()     # eviction iterates; writers may race


def _remember(memo: dict, key: Any, value: Any) -> None:
    with _memo_lock:
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value


def clear_memos() -> None:
    """Empty the in-process verdict and program-shape memos."""
    _verdicts.clear()
    _shapes.clear()


def _job_findings(app: Any, dataset: str, job: Job,
                  keep: Traces | None = None) -> tuple[Diagnostic, ...]:
    """:func:`analyze_job`'s findings, memoized on the program's shape.

    ``build_job`` takes the program from ``make_program(ds, n_ranks)``,
    the communicators from ``communicators(n_ranks)`` and the kernel
    table from ``kernels(ds)``, so the findings depend only on those
    three functions (the bound methods name the app), the dataset, the
    rank count, the network's eager threshold and the analyzer itself —
    not on threads, binding, allocation, preset or data policy.
    """
    key = (app.make_program, app.communicators, app.kernels, dataset,
           job.placement.n_ranks,
           float(job.cluster.network.rendezvous_threshold_bytes),
           analyzer_fingerprint())
    found = _shapes.get(key)
    if found is None:
        found = tuple(analyze_job(job, keep).diagnostics)
        _remember(_shapes, key, found)
    return found


# ----------------------------------------------------------------------
# the pre-flight gate
# ----------------------------------------------------------------------
_enabled = not os.environ.get(ENV_NO_LINT)

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
              ) -> tuple[Job, Traces | None] | None:
    """Raise :class:`~repro.errors.LintError` if ``config`` has
    error-severity findings; warnings pass silently.

    Verdicts are memoized per config digest (and the program analysis
    per program shape) in-process, so sweeping the same config — or
    another placement of the same program — repeatedly pays for one
    analysis.  When this call assembled the job, it returns it with the
    traces it replayed (``None`` on a program-shape memo hit) for
    :func:`~repro.runtime.executor.run_job` to walk; on a verdict memo
    hit it returns ``None``.
    """
    from repro.core.cache import config_digest

    digest = config_digest(config)
    cached = _verdicts.get(digest)
    if cached is not None:
        if cached:
            raise LintError("\n".join(cached))
        return None
    traces: Traces = {}
    report, job = _analyze_config_fresh(config, traces)
    errors = report.errors
    if errors:
        lines = (f"pre-flight lint failed for {report.subject} "
                 f"({len(errors)} error(s); rerun with `repro lint` or "
                 f"skip with --no-lint):",)
        lines += tuple(d.render() for d in errors)
        _remember(_verdicts, digest, lines)
        raise LintError("\n".join(lines), diagnostics=tuple(errors))
    _remember(_verdicts, digest, ())
    return (job, traces or None) if job is not None else None
