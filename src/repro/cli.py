"""Command-line interface: ``python -m repro <command>``.

Commands mirror what a user of the original study's scripts would run:

* ``list-apps`` / ``list-processors`` — inventory;
* ``run`` — simulate one configuration and print the report;
* ``profile`` — simulate with the PMU on and print the fapp-style report;
* ``sweep`` — the MPI x OpenMP grid for one app (``--resume`` restarts
  an interrupted run from the persistent cache's rows and strikes);
* ``chaos`` — deterministic fault-injection campaigns with invariant
  checks (the CI resilience gate);
* ``figure`` — regenerate one paper artifact (an id of
  :data:`repro.artifacts.ARTIFACTS`);
* ``roofline`` — per-kernel roofline placement for one app;
* ``energy`` — the power-mode study for one app;
* ``runs`` / ``report <run_id>`` / ``reproduce <run_id>`` — the
  telemetry trio: list recorded runs, summarize one (metrics, gate
  timings, fault events, Chrome trace export), and re-execute one from
  its manifest, diffing the replay against the recorded rows.

Sweep-running commands record themselves as runs in one log per
process, ``results/runs/<session>.jsonl``, by default;
``--no-telemetry`` (or ``REPRO_TELEMETRY=off``) restores the unrecorded
path.

A command whose standard output is closed before it finishes printing
(``repro report <id> | head -1``) stops there without a traceback and
exits with status 141 (:data:`EXIT_BROKEN_PIPE`), the status a shell
reports for a process that ``SIGPIPE`` ended.

Each flag group is declared by one ``_add_*`` builder, with forgiving
spellings: ``--app ccs_qcd`` and ``--processor a64fx`` resolve to
``ccs-qcd`` / ``A64FX``.  The flags make one config (:func:`_config`);
``run --breakdown`` and ``profile`` simulate the runner's own job for it
(:func:`repro.core.runner.event_job`).  Every choice comes from
:mod:`repro.names`, so ``repro --help`` loads none of the model.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro import names
from repro.artifacts import ARTIFACTS
from repro.units import fmt_bw, fmt_rate, fmt_time


#: Exit status of a command whose standard output closed early: 128 +
#: ``SIGPIPE``, as a shell reports a process that signal ended.
EXIT_BROKEN_PIPE = 141


def _app_name(value: str) -> str:
    """Normalize an ``--app`` spelling: suite keys use hyphens."""
    return value.strip().lower().replace("_", "-")


def _processor_name(value: str) -> str:
    """Normalize a ``--processor`` spelling to the catalog's exact case."""
    lookup = {name.lower(): name for name in names.PROCESSORS}
    return lookup.get(value.strip().lower(), value)


def _add_processor_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--processor", default="A64FX", type=_processor_name,
                        choices=names.PROCESSORS)


def _add_app_flags(parser: argparse.ArgumentParser, suite: str | None = None,
                   processor: bool = True) -> None:
    """``--app`` / ``--dataset`` / ``--processor`` — what to simulate.
    With ``suite`` (the command's verb) the app is an optional
    positional that defaults to the whole suite."""
    if suite is None:
        parser.add_argument("--app", required=True, type=_app_name,
                            choices=names.APPS)
    else:
        parser.add_argument("app", nargs="?", type=_app_name,
                            choices=names.APPS,
                            help=f"miniapp to {suite} (default: whole suite)")
    parser.add_argument("--dataset", default="as-is")
    if processor:
        _add_processor_flag(parser)


def _add_placement_flags(parser: argparse.ArgumentParser,
                         grid: str | None = None, nodes: bool = True,
                         axes: bool = True) -> None:
    """``--nodes`` / ``--ranks`` / ``--threads``, then (``axes``) the
    F2-F4 axis flags ``--stride`` / ``--allocation`` / ``--options`` /
    ``--data-policy``.  With ``grid`` (the command's verb) ranks and
    threads default to unset, and the command checks its default grid."""
    if nodes:
        parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument(
        "--ranks", type=int, default=None if grid else 4,
        help=grid and f"{grid} one placement instead of the default grid")
    parser.add_argument("--threads", type=int, default=None if grid else 12)
    if not axes:
        return
    parser.add_argument("--stride", type=int, default=1,
                        help="thread-binding stride (1 = compact)")
    parser.add_argument("--allocation", default="block",
                        choices=names.ALLOCATIONS)
    parser.add_argument("--options", default="kfast", choices=names.PRESETS)
    parser.add_argument("--data-policy", default="first-touch",
                        choices=names.DATA_POLICIES)


def _add_cache_flags(parser: argparse.ArgumentParser,
                     what: str = "result-cache directory",
                     no_cache: str | None = None) -> None:
    """``--cache-dir`` (``what`` it holds), and ``--no-cache`` when
    ``no_cache`` says what it does."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"{what} (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    if no_cache is not None:
        parser.add_argument("--no-cache", action="store_true", help=no_cache)


#: The cache flags of ``lint`` and ``advise``, which share their cache.
_ANALYSIS_CACHE = dict(
    what="result-cache directory, whose log keeps the lint and advise "
         "verdicts",
    no_cache="re-analyze even if a cached verdict exists")


def _add_results_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="root for recorded runs (default: $REPRO_RESULTS_DIR or "
             "./results; runs land in <DIR>/runs/<session>.jsonl)")


def _add_json_flag(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--json", default=None, metavar="FILE", help=help)


def _add_exec_flags(parser: argparse.ArgumentParser,
                    jobs: bool = True) -> None:
    """``--jobs`` / ``--cache-dir`` / ``--no-cache`` / the gates /
    ``--engine`` / telemetry on sweep-running commands."""
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="simulate up to N sweep points in parallel "
                 "(process pool; 1 = serial)")
    _add_cache_flags(
        parser, no_cache="disable the persistent result cache for this "
                         "invocation")
    parser.add_argument(
        "--no-lint", action="store_true",
        help="skip the static pre-flight lint (see `repro lint`)")
    parser.add_argument(
        "--advise", default=None, choices=["off", "warn", "error"],
        metavar="MODE",
        help="static performance gate (see `repro advise`): 'warn' "
             "blocks configs with error findings (infeasible "
             "placements), 'error' blocks on warnings too "
             "(default: $REPRO_ADVISE or off)")
    parser.add_argument(
        "--engine", default="event", choices=names.ENGINES,
        help="scoring engine: 'event' simulates, 'analytic' scores the "
             "sweep in closed form from memoized kernel and placement "
             "tables (~100x faster, no fault/protocol effects), 'auto' "
             "scores analytically and cross-checks a seeded sample "
             "against the simulator")
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="do not record this invocation as a run in the run log "
             "(equivalent to REPRO_TELEMETRY=off)")
    _add_results_dir_flag(parser)


def _add_service_client_flags(parser: argparse.ArgumentParser,
                              client: bool = True) -> None:
    """``--socket``, and for a client ``--timeout``."""
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="the service's unix socket (default: $REPRO_SERVICE_SOCKET "
             "or service.sock beside the default cache directory)")
    if client:
        parser.add_argument(
            "--timeout", type=float, default=600.0, metavar="SECONDS",
            help="give up if the service stays silent this long")


#: ExperimentConfig fields the app and placement flags set, by dest.
_CONFIG_FIELDS = {"app": "app", "dataset": "dataset",
                  "processor": "processor", "nodes": "n_nodes",
                  "ranks": "n_ranks", "threads": "n_threads",
                  "options": "options_preset", "data_policy": "data_policy"}


def _config(args, **fields):
    """The :class:`~repro.core.experiment.ExperimentConfig` the app and
    placement flags describe; ``fields`` override them (a lint or advise
    grid point).  Flags a command lacks keep the config's defaults."""
    from repro.core.experiment import ExperimentConfig
    from repro.runtime.affinity import ProcessAllocation, ThreadBinding

    flags = vars(args)
    for dest, name in _CONFIG_FIELDS.items():
        if dest in flags:
            fields.setdefault(name, flags[dest])
    if "stride" in flags:
        fields.setdefault("binding", ThreadBinding.from_stride(args.stride))
    if "allocation" in flags:
        fields.setdefault("allocation", ProcessAllocation(args.allocation))
    return ExperimentConfig(**fields)


def _cache_from_args(args):
    """A ResultCache per the flags, or None with ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.core.cache import ResultCache

    return ResultCache(args.cache_dir)


def _write_json(path: str, data, **dump) -> None:
    """Write ``data`` to ``path`` as JSON (indented, keys sorted, unless
    ``dump`` says otherwise) and say so."""
    import json

    with open(path, "w") as fh:
        json.dump(data, fh, **{"indent": 2, "sort_keys": True, **dump})
    print(f"wrote {path}")


def _cmd_list_apps(_args) -> int:
    from repro.core.figures import t2_miniapp_table

    print(t2_miniapp_table().render())
    return 0


def _cmd_list_processors(_args) -> int:
    from repro.core.figures import t1_processor_specs

    print(t1_processor_specs().render())
    return 0


def _run_error(args, exc: Exception, config=None) -> int:
    """Surface a failed ``repro run`` as a one-config sweep error would
    read: label, pid, class, message, and the full traceback.  The label
    is the one of ``config``, the config the flags describe; when they
    describe none (``--stride 0``, ``--ranks 0``), it is built from the
    app and placement flags alone."""
    import traceback

    if config is not None:
        label = config.label()
    else:
        label = (f"{args.app}/{args.dataset} {args.processor} "
                 f"{args.ranks}x{args.threads}"
                 + (f" {args.nodes}nodes" if args.nodes != 1 else ""))
    print(f"error: {label} [pid {os.getpid()}]: {type(exc).__name__}: "
          f"{exc}\n{traceback.format_exc().rstrip()}", file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    from repro.core.runner import (event_job, event_placement, event_row,
                                   run_config)
    from repro.errors import ReproError

    config = None
    try:
        config = _config(args)
        placement = event_placement(config)
    except ReproError as exc:
        return _run_error(args, exc, config)
    print(f"{config.app}/{config.dataset} on {placement.cluster.name}: "
          f"{placement.describe()}")
    if args.breakdown and args.engine != "event":
        print("error: --breakdown needs the event executor's traces; "
              "drop --engine or use --engine event", file=sys.stderr)
        return 2
    if args.breakdown:
        # the per-phase breakdown needs the full traces, which cached
        # rows don't carry — simulate directly
        from repro.runtime.executor import run_job

        result = run_job(event_job(config))
        row = event_row(config, result)
    else:
        try:
            row = run_config(config, _cache_from_args(args),
                             engine=args.engine)
        except Exception as exc:  # noqa: BLE001 - CLI error surface
            return _run_error(args, exc, config)
        if row.engine != "event":
            print(f"  engine         {row.engine}")
    print(f"  elapsed        {fmt_time(row.elapsed)}")
    print(f"  performance    {fmt_rate(row.gflops * 1e9)}")
    print(f"  DRAM traffic   {fmt_bw(row.dram_gbytes_per_s * 1e9)}")
    print(f"  communication  {row.comm_fraction:.1%}")
    if args.breakdown:
        for cat, t in sorted(result.breakdown().items()):
            print(f"    {cat:<12} {fmt_time(t)}")
    return 0


def _cmd_profile(args) -> int:
    from repro.core.runner import event_job
    from repro.miniapps import by_name
    from repro.perf import (
        cycle_accounting_table,
        profile_job,
        region_table,
        roofline_crosscheck_table,
    )

    config = _config(args)
    job = event_job(config)
    result, profile = profile_job(job)
    print(region_table(profile, top=args.top).render())
    print()
    print(cycle_accounting_table(profile).render())
    print()
    print(roofline_crosscheck_table(
        profile, job.cluster, by_name(config.app), dataset=config.dataset,
        options=config.options).render())
    if args.json:
        _write_json(args.json, profile.to_json(), sort_keys=False)
    if args.trace:
        from repro.runtime.timeline import write_chrome_trace

        write_chrome_trace(result, args.trace, profile)
        print(f"wrote {args.trace}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.figures import f1_mpi_omp_sweep, t3_best_config

    table, sweeps = f1_mpi_omp_sweep(
        apps=[args.app], dataset=args.dataset, processor=args.processor,
        cache=_cache_from_args(args), workers=args.jobs,
        resume=args.resume, engine=args.engine)
    print(table.render())
    errors = [err for sweep in sweeps.values() for err in sweep.errors]
    if any(sweep.rows for sweep in sweeps.values()):
        print(t3_best_config(sweeps).render())
    if errors:
        for err in errors:
            print(err.details(), file=sys.stderr)
        print(f"sweep: {len(errors)} quarantined/failed config(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from repro.errors import ConfigurationError

    if args.service:
        from repro.faults.service import run_service_campaign

        report = run_service_campaign(seed=args.seed)
    else:
        from repro.faults import run_campaign

        apps = tuple(_app_name(a) for a in args.apps.split(",")) \
            if args.apps else None
        try:
            report = run_campaign(seed=args.seed, apps=apps,
                                  quick=args.quick, processor=args.processor,
                                  engine=args.engine)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(report.render())
    if args.json:
        _write_json(args.json, report.to_json())
    return 0 if report.ok else 1


def _cmd_figure(args) -> int:
    from repro.errors import ConfigurationError

    by_id = {a.id.lower(): a for a in ARTIFACTS}
    artifact = by_id.get(args.id.lower())
    if artifact is None:
        print(f"unknown figure id {args.id!r}; "
              f"available: {', '.join(by_id)}", file=sys.stderr)
        return 2
    try:
        table, _ = artifact.build(_cache_from_args(args), args.jobs,
                                  args.engine)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(table.render())
    if args.csv:
        print(table.to_csv())
    return 0


def _cmd_roofline(args) -> int:
    from repro.core.figures import f6_roofline

    print(f6_roofline(apps=[args.app], dataset=args.dataset,
                      processor=args.processor).render())
    return 0


def _cmd_energy(args) -> int:
    from repro.core.energy import mode_study

    reports = mode_study(args.app, args.dataset,
                         n_ranks=args.ranks, n_threads=args.threads)
    print(f"power-control modes for {args.app}/{args.dataset}:")
    for mode, rep in reports.items():
        print(f"  {mode:<7} {fmt_time(rep.elapsed_s):>12}  "
              f"{rep.average_watts:7.1f} W  "
              f"{rep.energy_joules:10.3f} J  "
              f"{rep.gflops_per_watt:7.2f} GF/W")
    return 0


#: Placement grid `repro lint` checks when no --ranks/--threads given:
#: the grid corners plus the paper's sweet spot — enough to exercise
#: every comm topology the apps build without re-tracing all nine points.
_LINT_GRID = [(1, 48), (4, 12), (48, 1)]


def _grid_configs(args, grid):
    """What ``lint`` / ``advise`` check: the named app, or every app,
    at the ``--ranks`` / ``--threads`` placement, or at each point of
    ``grid`` when neither is given."""
    if args.ranks is not None or args.threads is not None:
        grid = [(args.ranks or 4, args.threads or 12)]
    return (_config(args, app=app, n_ranks=n_ranks, n_threads=n_threads)
            for app in ([args.app] if args.app else names.APPS)
            for n_ranks, n_threads in grid)


def _cmd_lint(args) -> int:
    from repro.analysis import analyze_config

    cache = _cache_from_args(args)
    n_errors = 0
    for config in _grid_configs(args, _LINT_GRID):
        report = analyze_config(config, cache=cache)
        if report.ok:
            print(report.summary())
        else:
            print(report.render())
            n_errors += len(report.errors)
    if n_errors:
        print(f"lint: {n_errors} error(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_advise(args) -> int:
    from repro.analysis import advise_config
    from repro.machine import catalog

    # machine-sized default grid: both corners plus one rank per NUMA
    # domain (4x12 on A64FX), the paper's sweet spot
    cluster = catalog.by_name(args.processor, n_nodes=args.nodes)
    cores = cluster.cores_per_node
    n_dom = cluster.node.n_domains
    grid = [(1, cores)]
    if cores % n_dom == 0 and 1 < n_dom < cores:
        grid.append((n_dom, cores // n_dom))
    grid.append((cores, 1))

    cache = _cache_from_args(args)
    reports = []
    n_errors = 0
    for config in _grid_configs(args, grid):
        report = advise_config(config, cache=cache)
        reports.append(report)
        n_errors += len(report.errors)
        shown = report.at_least(args.min_severity)
        if not shown:
            print(f"{report.subject}: clean at severity >= "
                  f"{args.min_severity}")
        else:
            print(report.render(args.min_severity))
    if args.json:
        _write_json(args.json, {"reports": [r.to_dict() for r in reports]})
    if n_errors:
        print(f"advise: {n_errors} error(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    if args.engines:
        from repro.validate import validate_engines as check
    elif args.counters:
        from repro.perf import validate_counters as check
    elif args.advise_clean:
        from repro.validate import validate_advise as check
    else:
        from repro.validate import validate_diagnostics as check
    report = check()
    if args.json:
        _write_json(args.json, report.to_dict())
    if args.advise_clean:
        # the advise-clean gate: errors fail, warnings/infos are the
        # recorded-but-expected model observations
        errors = report.errors
        if not errors:
            print(f"{report.subject}: no error-severity findings "
                  f"({len(report.warnings)} warning(s), "
                  f"{len(report.infos)} info(s) recorded)")
            return 0
        print(report.render("error"), file=sys.stderr)
        return 1
    if report.ok:
        print(f"{report.subject}: all consistency checks passed")
        return 0
    print(report.render(), file=sys.stderr)
    return 1


def _cmd_runs(args) -> int:
    import json

    from repro.telemetry.report import list_runs, render_runs

    entries = list_runs(args.results_dir, kind=args.kind,
                        status=args.status, name=args.name)
    if args.latest:
        entries = entries[-1:]
        if not entries:
            print("no recorded runs", file=sys.stderr)
            return 1
        if not args.json:
            # bare id, so `repro reproduce $(repro runs --latest)` works
            print(entries[0].run_id)
            return 0
    if args.json:
        print(json.dumps([e.to_dict() for e in entries],
                         indent=2, sort_keys=True))
        return 0
    print(render_runs(entries))
    return 0


def _cmd_report(args) -> int:
    from repro.errors import ConfigurationError

    if args.run_id is None:
        from repro.artifacts import write_report

        try:
            path = write_report(
                args.output, quick=args.quick,
                progress=lambda aid: print(f"  {aid} done"),
                cache=_cache_from_args(args), workers=args.jobs,
                engine=args.engine)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        return 0
    # with a run id: summarize that recorded run
    from repro.telemetry.report import RunReport

    try:
        rep = RunReport.load(args.run_id, args.results_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        _write_json(args.trace, rep.chrome_trace(), indent=None,
                    sort_keys=False)
    if args.json:
        _write_json(args.json, rep.to_dict(), default=str)
    print(rep.render())
    return 0


def _cmd_reproduce(args) -> int:
    from repro.errors import ReproError
    from repro.telemetry.reproduce import reproduce_run

    try:
        report = reproduce_run(args.run_id, args.results_dir,
                               rtol=args.rtol, atol=args.atol,
                               workers=args.jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _write_json(args.json, report.to_dict())
    print(report.render())
    return 0 if report.ok else 1


def _print_stream(frames, *, quiet: bool = False) -> int:
    """Render a submit/watch event stream; exit 0 only on a clean
    completed job."""
    final = None
    for frame in frames:
        kind = frame.get("type")
        if kind == "job" and not quiet:
            job = frame.get("job") or {}
            print(f"job {job.get('job_id')} {job.get('state')} "
                  f"({job.get('n_configs')} configs, "
                  f"engine {job.get('engine')})")
        elif kind == "row" and not quiet:
            from repro.service.protocol import parse_row

            _index, row, source = parse_row(frame)
            print(f"  [{source:>8}] {row.config.label():<42} "
                  f"{row.gflops:9.2f} GF/s  {fmt_time(row.elapsed):>10}")
        elif kind == "row-error":
            mark = " (quarantined)" if frame.get("quarantined") else ""
            print(f"  [  failed] config {frame.get('index')}: "
                  f"{frame.get('error')}: {frame.get('message')}{mark}",
                  file=sys.stderr)
        elif kind == "done":
            final = frame.get("job") or {}
    if final is None:
        print("stream ended without a done frame", file=sys.stderr)
        return 1
    print(f"job {final.get('job_id')} {final.get('state')}: "
          f"{final.get('n_done')} row(s), {final.get('n_failed')} failed "
          f"({final.get('n_executed')} executed, "
          f"{final.get('n_dedup_hits')} dedup, "
          f"{final.get('n_cache_hits')} cache)")
    if final.get("error"):
        print(f"  {final.get('error')}", file=sys.stderr)
    return 0 if (final.get("state") == "completed"
                 and not final.get("n_failed")) else 1


def _service_command(fn):
    """``fn(args, client)`` as a command, ``client`` connected to the
    service at ``--socket``: a service error prints and exits 1."""
    def command(args) -> int:
        from repro.errors import ServiceError, ServiceUnavailable
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(args.socket, timeout_s=args.timeout) as client:
                return fn(args, client)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if isinstance(exc, ServiceUnavailable):
                print("is a server running?  start one with: repro serve",
                      file=sys.stderr)
            return 1
    return command


def _cmd_serve(args) -> int:
    from repro.core.parallel import RetryPolicy
    from repro.service.server import SweepService

    heartbeat = args.heartbeat if args.heartbeat > 0 else None
    service = SweepService(
        args.socket, cache=_cache_from_args(args), workers=args.jobs,
        max_jobs=args.max_jobs, max_queued=args.max_queued,
        heartbeat_s=heartbeat,
        retry=RetryPolicy(timeout_s=args.exec_timeout),
        results_dir=args.results_dir,
        drain_timeout_s=args.drain_timeout)
    resumable = len(service.ledger.incomplete())
    cap = f", max-queued={service.max_queued}" \
        if service.max_queued is not None else ""
    print(f"repro service listening on {service.socket_path} "
          f"(workers={args.jobs}, max-jobs={args.max_jobs}{cap}"
          + (f", resuming {resumable} job(s)" if resumable else "")
          + "); SIGTERM/Ctrl-C drains")
    return service.run()


@_service_command
def _cmd_health(args, client) -> int:
    health = client.health()
    if args.json:
        import json

        print(json.dumps(health, indent=2, sort_keys=True))
        return 0 if health.get("status") == "ok" else 1
    by_state = health.get("jobs_by_state") or {}
    states = ", ".join(f"{k}={v}" for k, v in sorted(by_state.items())) \
        or "none"
    lag = health.get("ledger_lag_s")
    print(f"status:    {health.get('status')}  "
          f"(pid {health.get('pid')}, v{health.get('version')}, "
          f"up {health.get('uptime_s')}s)")
    print(f"queue:     depth={health.get('queue_depth')} "
          f"running={health.get('running')} "
          f"pending={health.get('pending')} "
          f"max-jobs={health.get('max_jobs')} "
          f"max-queued={health.get('max_queued')}")
    print(f"pool:      {health.get('pool_state')} "
          f"({health.get('inflight_executions')} in-flight execution(s), "
          f"{health.get('watchdog_kills')} watchdog kill(s))")
    print(f"ledger:    lag="
          + ("never appended" if lag is None else f"{lag}s"))
    print(f"jobs:      {states}  "
          f"(rejected={health.get('rejected')}, "
          f"expired={health.get('expired')})")
    return 0 if health.get("status") == "ok" else 1


@_service_command
def _cmd_submit(args, client) -> int:
    from repro.core.experiment import f1_configs

    configs = f1_configs(args.app, args.dataset, args.processor)
    name = f"f1-{args.app}"
    if args.detach:
        job = client.submit(name, configs, engine=args.engine,
                            priority=args.priority, deadline_s=args.deadline)
        print(job.get("job_id", ""))
        return 0
    return _print_stream(
        client.stream(name, configs, engine=args.engine,
                      priority=args.priority, deadline_s=args.deadline))


@_service_command
def _cmd_jobs(args, client) -> int:
    jobs = client.jobs()
    stats = client.status() if args.stats else None
    if args.json:
        import json

        print(json.dumps({"jobs": jobs, "stats": stats}
                         if stats is not None else {"jobs": jobs},
                         indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
    for job in jobs:
        done = f"{job.get('n_done')}/{job.get('n_configs')}"
        line = (f"{job.get('job_id'):<34} {job.get('state'):<10} "
                f"{done:>7}  {job.get('engine'):<8} {job.get('name')}")
        if job.get("error"):
            line += f"  [{job['error']}]"
        print(line)
    if stats is not None:
        print(f"server: {stats.get('jobs_total')} job(s), "
              f"{stats.get('executed')} executed, "
              f"{stats.get('dedup_hits')} dedup hit(s), "
              f"{stats.get('cache_hits')} cache hit(s), "
              f"uptime {stats.get('uptime_s')}s")
    return 0


@_service_command
def _cmd_watch(args, client) -> int:
    return _print_stream(client.watch(args.job_id))


@_service_command
def _cmd_cancel(args, client) -> int:
    job = client.cancel(args.job_id)
    print(f"job {job.get('job_id')} {job.get('state')}")
    return 0


def _cmd_cache(args) -> int:
    from repro.core.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_cmd == "compact":
        stats = cache.compact(keep_stale=not args.drop_stale)
        print(f"compacted {cache.path}: kept {stats['kept']} record(s), "
              f"dropped {stats['dropped_torn']} torn, "
              f"{stats['dropped_duplicates']} duplicate(s), "
              f"{stats['dropped_stale']} stale "
              f"({stats['bytes_before']} -> {stats['bytes_after']} bytes)")
        return 0
    print(f"{cache.path}: {len(cache)} usable record(s), "
          f"{cache.torn_lines} torn line(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A64FX / Fiber Miniapp Suite performance evaluation "
                    "framework (CLUSTER 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="show the miniapp suite") \
        .set_defaults(func=_cmd_list_apps)
    sub.add_parser("list-processors", help="show the processor catalog") \
        .set_defaults(func=_cmd_list_processors)

    run = sub.add_parser("run", help="simulate one configuration")
    _add_app_flags(run)
    _add_placement_flags(run)
    run.add_argument("--breakdown", action="store_true",
                     help="print the per-phase time breakdown")
    _add_exec_flags(run, jobs=False)
    run.set_defaults(func=_cmd_run)

    prof = sub.add_parser(
        "profile",
        help="simulate one configuration with the PMU on and print the "
             "fapp-style region / cycle-accounting / roofline report")
    _add_app_flags(prof)
    _add_placement_flags(prof)
    prof.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N hottest regions")
    _add_json_flag(prof, "also write the profile as JSON")
    prof.add_argument("--trace", default=None, metavar="FILE",
                      help="also write a Chrome trace with counter tracks")
    prof.set_defaults(func=_cmd_profile)

    sweep = sub.add_parser("sweep", help="MPI x OpenMP grid for one app")
    _add_app_flags(sweep)
    _add_exec_flags(sweep)
    sweep.add_argument(
        "--resume", action="store_true",
        help="pick up an interrupted sweep: completed rows come from the "
             "persistent cache, repeat-failing configs are quarantined "
             "(requires the cache, i.e. incompatible with --no-cache)")
    sweep.set_defaults(func=_cmd_sweep)

    chaos = sub.add_parser(
        "chaos",
        help="replay deterministic fault-injection campaigns across the "
             "miniapp catalog and check resilience invariants")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (same seed = bit-identical "
                            "campaign)")
    chaos.add_argument("--quick", action="store_true",
                       help="two-app smoke subset (the CI gate)")
    chaos.add_argument("--apps", default=None, metavar="A,B,...",
                       help="comma-separated app subset (default: full "
                            "suite, or the smoke subset with --quick)")
    _add_processor_flag(chaos)
    chaos.add_argument(
        "--service", action="store_true",
        help="run the sweep-service crash-consistency campaign instead "
             "(torn ledger writes, kills at journaled transitions, torn "
             "frames, hung workers, lapsed deadlines): no accepted job "
             "may be lost or duplicated across crash/restart")
    _add_json_flag(chaos, "write the campaign report as JSON")
    chaos.add_argument(
        "--engine", default="event", choices=names.ENGINES,
        help="must be 'event': fault injection needs the event executor "
             "(anything else is rejected rather than silently ignoring "
             "the fault plans)")
    chaos.set_defaults(func=_cmd_chaos)

    fig = sub.add_parser("figure", help="regenerate one paper artifact")
    fig.add_argument("id", help=", ".join(a.id.lower() for a in ARTIFACTS))
    fig.add_argument("--csv", action="store_true", help="also print CSV")
    _add_exec_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    roof = sub.add_parser("roofline", help="roofline placement for one app")
    _add_app_flags(roof)
    roof.set_defaults(func=_cmd_roofline)

    energy = sub.add_parser("energy", help="power-mode study for one app")
    _add_app_flags(energy, processor=False)
    _add_placement_flags(energy, nodes=False, axes=False)
    energy.set_defaults(func=_cmd_energy)

    lint = sub.add_parser(
        "lint",
        help="static pre-flight analysis of rank programs and placements")
    _add_app_flags(lint, suite="lint")
    _add_placement_flags(lint, grid="lint", axes=False)
    _add_cache_flags(lint, **_ANALYSIS_CACHE)
    lint.set_defaults(func=_cmd_lint)

    advise = sub.add_parser(
        "advise",
        help="static performance analysis: where does the model say the "
             "time goes, and which placement choices leave performance "
             "on the table")
    _add_app_flags(advise, suite="advise on")
    _add_placement_flags(advise, grid="advise")
    advise.add_argument("--min-severity", default="info",
                        choices=["error", "warning", "info"],
                        help="hide findings below this severity "
                             "(default: show everything)")
    _add_json_flag(advise, "also write every report as JSON")
    _add_cache_flags(advise, **_ANALYSIS_CACHE)
    advise.set_defaults(func=_cmd_advise)

    validate = sub.add_parser(
        "validate",
        help="run the model's internal consistency checks")
    validate.add_argument(
        "--counters", action="store_true",
        help="cross-validate the simulated PMU against the analytic "
             "roofline and the executor's work totals (repro.perf)")
    validate.add_argument(
        "--engines", action="store_true",
        help="seeded sim-vs-analytic cross-validation: score every "
             "app's MPI x OpenMP grid analytically and re-simulate a "
             "deterministic sample with the event executor (the CI "
             "analytic-agreement gate)")
    validate.add_argument(
        "--advise", action="store_true", dest="advise_clean",
        help="advisor cleanliness over every catalog machine x miniapp "
             "F1 grid: fails only on error-severity perf findings (the "
             "CI advise-clean gate)")
    _add_json_flag(validate,
                   "also write the report as JSON (the CI warning artifact)")
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report",
        help="regenerate every artifact into one Markdown file, or — "
             "with a run id — summarize one recorded run")
    report.add_argument(
        "run_id", nargs="?", default=None,
        help="recorded run id (or unique prefix): print its metrics, "
             "gate timings, fault events, and slowest configs instead "
             "of generating the Markdown report")
    report.add_argument("-o", "--output", default="REPORT.md")
    report.add_argument("--quick", action="store_true",
                        help="skip the slow sweep artifacts")
    _add_json_flag(report, "with a run id: also write the full report as "
                           "JSON")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="with a run id: write the run's spans as a "
                             "Chrome trace (chrome://tracing, Perfetto)")
    _add_exec_flags(report)
    report.set_defaults(func=_cmd_report)

    serve = sub.add_parser(
        "serve",
        help="run the sweep job service: a long-lived server accepting "
             "sweep submissions from many concurrent clients over a "
             "unix socket, with fleet-wide dedup against the shared "
             "result cache")
    _add_service_client_flags(serve, client=False)
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="event-engine worker processes")
    serve.add_argument("--max-jobs", type=int, default=4, metavar="N",
                       help="jobs executing concurrently; the rest queue "
                            "under the weighted fair-share policy")
    serve.add_argument("--max-queued", type=int, default=None, metavar="N",
                       help="admission cap: reject submissions (typed, "
                            "retryable 'overloaded' error) while N jobs "
                            "are already pending (default: "
                            "$REPRO_SERVICE_MAX_QUEUED, else unbounded)")
    serve.add_argument("--heartbeat", type=float, default=10.0,
                       metavar="SECONDS",
                       help="emit a heartbeat frame on a silent watch "
                            "stream after this long (0 disables)")
    serve.add_argument("--exec-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-execution progress watchdog: kill and "
                            "retry a config attempt exceeding this "
                            "(default: no watchdog)")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="on shutdown, wait at most this long for "
                            "running jobs (default: wait indefinitely)")
    _add_cache_flags(
        serve, what="result-cache directory; also hosts the job ledger, "
                    "so jobs survive a server restart",
        no_cache="serve from memory only (jobs do not survive the process)")
    _add_results_dir_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one app's MPI x OpenMP sweep to the running "
             "service and stream its rows")
    _add_app_flags(submit)
    _add_service_client_flags(submit)
    submit.add_argument("--engine", default="event", choices=names.ENGINES)
    submit.add_argument("--detach", action="store_true",
                        help="print the job id and return immediately "
                             "(reattach with `repro watch <id>`)")
    submit.add_argument("--priority", default="normal",
                        choices=names.PRIORITIES,
                        help="fair-share weight class (high is picked "
                             "earlier but never starves others)")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget from submission; the "
                             "job expires instead of running past it")
    submit.set_defaults(func=_cmd_submit)

    health = sub.add_parser(
        "health",
        help="probe the running service: queue depth, pool state, "
             "ledger lag, uptime (exit 0 only on status ok)")
    _add_service_client_flags(health)
    health.add_argument("--json", action="store_true",
                        help="emit the raw health payload as JSON")
    health.set_defaults(func=_cmd_health)

    jobs_cmd = sub.add_parser(
        "jobs", help="list the service's jobs (oldest first)")
    _add_service_client_flags(jobs_cmd)
    jobs_cmd.add_argument("--stats", action="store_true",
                          help="also print server/scheduler statistics")
    jobs_cmd.add_argument("--json", action="store_true",
                          help="emit as JSON")
    jobs_cmd.set_defaults(func=_cmd_jobs)

    watch = sub.add_parser(
        "watch",
        help="attach to a service job and stream its rows (replays "
             "from the start, then follows live)")
    watch.add_argument("job_id", help="job id (or unique prefix)")
    _add_service_client_flags(watch)
    watch.set_defaults(func=_cmd_watch)

    cancel = sub.add_parser("cancel", help="cancel a service job")
    cancel.add_argument("job_id", help="job id (or unique prefix)")
    _add_service_client_flags(cancel)
    cancel.set_defaults(func=_cmd_cancel)

    cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent result cache")
    cache_sub = cache.add_subparsers(dest="cache_cmd")
    compact = cache_sub.add_parser(
        "compact",
        help="rewrite the cache JSONL without torn or duplicate lines "
             "(atomic replace; safe beside a running service)")
    _add_cache_flags(compact, what="cache directory")
    compact.add_argument(
        "--drop-stale", action="store_true",
        help="also drop records from other model fingerprints "
             "(older package versions / changed hardware catalogs)")
    _add_cache_flags(cache, what="cache directory")
    cache.set_defaults(func=_cmd_cache)

    runs = sub.add_parser(
        "runs", help="list recorded runs (see `repro report <run_id>`)")
    _add_results_dir_flag(runs)
    runs.add_argument("--kind", default=None,
                      choices=["sweep", "config", "service-job"],
                      help="only runs of this kind")
    runs.add_argument("--status", default=None,
                      choices=["running", "completed", "failed",
                               "cancelled", "expired"],
                      help="only runs with this final status")
    runs.add_argument("--name", default=None, metavar="SUBSTR",
                      help="only runs whose name contains SUBSTR")
    runs.add_argument("--latest", action="store_true",
                      help="print only the newest matching run id "
                           "(bare, for shell substitution)")
    runs.add_argument("--json", action="store_true",
                      help="emit the run list as JSON")
    runs.set_defaults(func=_cmd_runs)

    reproduce = sub.add_parser(
        "reproduce",
        help="re-execute a recorded run from its manifest and diff the "
             "replay against the recorded rows (non-zero exit on drift)")
    reproduce.add_argument("run_id",
                           help="recorded run id (or unique prefix)")
    _add_results_dir_flag(reproduce)
    reproduce.add_argument("--rtol", type=float, default=1e-9,
                           help="relative tolerance per compared field "
                                "(default 1e-9; 0 = bit-for-bit)")
    reproduce.add_argument("--atol", type=float, default=0.0,
                           help="absolute tolerance per compared field")
    reproduce.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="replay up to N sweep points in parallel")
    _add_json_flag(reproduce, "also write the drift report as JSON")
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "no_lint", False):
        from repro.analysis import set_preflight

        set_preflight(False)
    if getattr(args, "no_telemetry", False):
        from repro import telemetry

        telemetry.set_telemetry(False)
    # exec commands route recorded runs via the env so worker processes
    # and nested builders agree on the root; read-side commands (runs /
    # report <id> / reproduce) also take the flag directly
    if getattr(args, "results_dir", None):
        from repro import telemetry

        telemetry.set_results_dir(args.results_dir)
    if getattr(args, "advise", None) is not None:
        from repro.analysis import set_advise_mode

        set_advise_mode(args.advise)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, and the flush
        # at interpreter exit, to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
