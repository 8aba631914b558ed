#!/usr/bin/env python
"""Time a representative sweep three ways and record the trajectory.

Runs the F1 MPI x OpenMP grid for one app

* serially with a cold persistent cache,
* serially again against the now-warm cache,
* in parallel (fresh cache) with a process pool — on single-CPU
  machines the pool still runs (with two workers) so ``parallel_s`` is
  never ``null``; a ``parallel_note`` field flags that the figure
  measures pool overhead rather than speedup there,
* with the analytic engine, cold and warm (``--engine analytic``) —
  the batched closed-form scorer is expected to beat the cold event
  sweep by >= 100x, and the ratio is recorded as
  ``analytic_speedup_x``,

plus a profiling-overhead leg: the same job simulated with the PMU sink
off (the default) and on, so ``BENCH_sweep.json`` records what turning
:mod:`repro.perf` on costs — and that leaving it off costs nothing,

plus a telemetry-overhead leg: the same cold event sweep with run
recording off (``REPRO_TELEMETRY=off``) and on (the default, writing a
run directory into a scratch results root), asserting the manifest /
metrics / span machinery stays under 3% of sweep wall time
(``telemetry_overhead_pct``).  Those are multi-second event sweeps,
where telemetry is within noise; the light-sweep cost shows in the
traced analytic-dse workload of ``benchmarks/perf``.  All other legs run with telemetry off so
their figures stay comparable with pre-telemetry datapoints,

plus a service-dedup leg: the same sweep submitted by N concurrent
clients to one in-thread :class:`repro.service.SweepService` (shared
cold cache, fleet-wide dedup) against the fleet-without-a-service
baseline of N serial ``run_sweep`` calls each with its own cold cache.
The server simulates each unique config once and fans the rows out, so
the ratio is recorded as ``service_dedup_speedup_x``,

plus a service-overload leg: a server capped at ``--max-queued``
admissions takes twice that many concurrent submissions, recording the
typed-rejection rate (``service_reject_rate``) and the p95 queue wait
of the jobs that were admitted (``service_overload_p95_wait_s``) —
the two numbers an operator tunes ``--max-queued`` against.

Writes ``BENCH_sweep.json`` at the repo root.  CI uploads the file as an
artifact, so every PR leaves a comparable perf datapoint.

Usage::

    PYTHONPATH=src python benchmarks/bench_timing.py [--app ffvc] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "BENCH_sweep.json"

#: Repetitions of the profiling-overhead job (keeps timer noise down
#: while staying a small fraction of the sweep legs).
_PROFILE_REPS = 3

#: Interleaved (off, on) repetitions of the telemetry-overhead sweep;
#: the per-mode minimum filters scheduler noise out of a <3% signal.
_TELEMETRY_REPS = 2

#: Concurrent clients in the service-dedup leg — the "fleet" whose
#: duplicate submissions the server coalesces into one simulation each.
_SERVICE_CLIENTS = 3

#: Admission cap for the overload leg; the leg applies 2x this much
#: concurrent submission pressure to exercise backpressure.
_OVERLOAD_QUEUE = 4


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _service_leg(configs, tmp: Path) -> tuple[float, float, dict]:
    """(N serial cold sweeps s, N concurrent clients via service s,
    server stats) for the fleet-dedup comparison."""
    import threading

    from repro.core.cache import ResultCache
    from repro.core.runner import run_sweep
    from repro.service import ServiceClient, SweepService, serve_in_thread

    def serial():
        for i in range(_SERVICE_CLIENTS):
            run_sweep("f1-service", configs,
                      ResultCache(tmp / f"svc-serial-{i}"))

    t_serial, _ = _timed(serial)

    socket_path = tmp / "bench.sock"
    svc = SweepService(socket_path,
                       cache=ResultCache(tmp / "svc-shared"),
                       workers=2, max_jobs=_SERVICE_CLIENTS)
    thread = serve_in_thread(svc)
    try:
        def one_client():
            with ServiceClient(socket_path, timeout_s=600) as c:
                c.run_sweep("f1-service", configs, engine="event")

        def fleet():
            clients = [threading.Thread(target=one_client)
                       for _ in range(_SERVICE_CLIENTS)]
            for t in clients:
                t.start()
            for t in clients:
                t.join()

        t_fleet, _ = _timed(fleet)
        stats = svc.stats()
    finally:
        thread.stop()
    return t_serial, t_fleet, stats


def _overload_leg(configs, tmp: Path) -> tuple[float, float, int]:
    """(p95 queue wait s of admitted jobs, reject rate, rejections)
    with 2x ``--max-queued`` concurrent submission pressure.

    The server caps admission at ``_OVERLOAD_QUEUE``; twice that many
    clients submit at once, so the tail submissions meet a full queue
    and take the typed ``overloaded`` rejection.  The p95 wait of the
    jobs that *were* admitted is the latency cost of riding out
    saturation instead of being rejected.
    """
    import threading

    from repro.core.cache import ResultCache
    from repro.errors import ServiceOverloaded
    from repro.service import ServiceClient, SweepService, serve_in_thread

    socket_path = tmp / "overload.sock"
    svc = SweepService(socket_path,
                       cache=ResultCache(tmp / "overload-cache"),
                       workers=2, max_jobs=2, max_queued=_OVERLOAD_QUEUE)
    thread = serve_in_thread(svc)
    accepted: list[str] = []
    rejected = 0
    lock = threading.Lock()
    try:
        def one_submitter(i: int) -> None:
            nonlocal rejected
            with ServiceClient(socket_path, timeout_s=600,
                               client_name=f"bench-{i}") as c:
                try:
                    job = c.submit(f"overload-{i}", configs)
                except ServiceOverloaded:
                    with lock:
                        rejected += 1
                else:
                    with lock:
                        accepted.append(job["job_id"])

        pressure = [threading.Thread(target=one_submitter, args=(i,))
                    for i in range(2 * _OVERLOAD_QUEUE)]
        for t in pressure:
            t.start()
        for t in pressure:
            t.join()
        with ServiceClient(socket_path, timeout_s=600) as c:
            waits = sorted(
                (final["started_at"] or final["submitted_at"])
                - final["submitted_at"]
                for job_id in accepted
                for final in [c.wait(job_id)])
    finally:
        thread.stop()
    p95 = waits[min(len(waits) - 1, int(0.95 * len(waits)))] \
        if waits else 0.0
    return p95, rejected / (2 * _OVERLOAD_QUEUE), rejected


def _profiling_overhead(app_name: str) -> tuple[float, float]:
    """(seconds with PMU off, seconds with PMU on) for one 4x12 job."""
    from repro.machine import catalog
    from repro.miniapps import by_name
    from repro.perf import profile_job
    from repro.runtime.executor import run_job
    from repro.runtime.placement import JobPlacement

    cluster = catalog.a64fx()
    app = by_name(app_name)
    placement = JobPlacement(cluster, 4, 12)
    job = app.build_job(cluster, placement, "as-is")

    run_job(job)  # warm compile/import paths outside the timed region
    t_off, _ = _timed(lambda: [run_job(job) for _ in range(_PROFILE_REPS)])
    t_on, _ = _timed(lambda: [profile_job(job) for _ in range(_PROFILE_REPS)])
    return t_off / _PROFILE_REPS, t_on / _PROFILE_REPS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="ffvc")
    parser.add_argument("--jobs", type=int, default=None,
                        help="workers for the parallel leg "
                             "(default: os.cpu_count())")
    parser.add_argument("-o", "--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    # Baseline legs run unrecorded so their figures stay comparable
    # with pre-telemetry datapoints; the telemetry leg flips this.
    os.environ["REPRO_TELEMETRY"] = "off"

    import repro
    from repro.core.cache import ResultCache
    from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
    from repro.core.runner import run_sweep

    cpu_count = os.cpu_count() or 1
    # Always exercise the pool: on a single-CPU box two workers measure
    # pool overhead, not speedup, but a recorded number beats a null.
    workers = args.jobs if args.jobs is not None else max(2, cpu_count)
    configs = [
        ExperimentConfig(app=args.app, n_ranks=nr, n_threads=nt)
        for nr, nt in MPI_OMP_CONFIGS
    ]

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        cold_dir = Path(tmp) / "cold"
        t_cold, sweep_cold = _timed(
            lambda: run_sweep("f1", configs, ResultCache(cold_dir)))
        # a fresh ResultCache instance forces the disk round-trip
        t_warm, sweep_warm = _timed(
            lambda: run_sweep("f1", configs, ResultCache(cold_dir)))
        par_dir = Path(tmp) / "par"
        t_par, sweep_par = _timed(
            lambda: run_sweep("f1", configs, ResultCache(par_dir),
                              workers=workers))
        # analytic engine: cold batch scoring, then warm cache reads
        # (tagged keys, so it shares a store with event rows safely)
        ana_dir = Path(tmp) / "analytic"
        t_ana_cold, sweep_ana = _timed(
            lambda: run_sweep("f1", configs, ResultCache(ana_dir),
                              engine="analytic"))
        t_ana_warm, sweep_ana_warm = _timed(
            lambda: run_sweep("f1", configs, ResultCache(ana_dir),
                              engine="analytic"))
        # telemetry overhead: cold event sweeps with recording off vs on
        # (run directories land in a scratch results root).  The legs
        # are interleaved and the per-mode minimum taken, because on a
        # busy single-CPU runner back-to-back ~3 s sweeps drift by more
        # than the budget being measured.
        tel = {"off": [], "on": []}
        os.environ["REPRO_RESULTS_DIR"] = str(Path(tmp) / "tel-results")
        try:
            for rep in range(_TELEMETRY_REPS):
                for mode in ("off", "on"):
                    os.environ["REPRO_TELEMETRY"] = mode
                    t, _ = _timed(lambda: run_sweep(
                        "f1", configs,
                        ResultCache(Path(tmp) / f"tel-{mode}-{rep}")))
                    tel[mode].append(t)
        finally:
            os.environ["REPRO_TELEMETRY"] = "off"
            os.environ.pop("REPRO_RESULTS_DIR", None)
        t_tel_off, t_tel_on = min(tel["off"]), min(tel["on"])
        # service: N clients, one shared server, fleet-wide dedup
        t_svc_serial, t_svc_fleet, svc_stats = _service_leg(
            configs, Path(tmp))
        # service under 2x --max-queued pressure: admission control
        p95_wait, reject_rate, n_rejected = _overload_leg(
            configs, Path(tmp))

    rows = [(r.config.label(), r.elapsed) for r in sweep_cold.rows]
    assert rows == [(r.config.label(), r.elapsed) for r in sweep_warm.rows]
    assert rows == [(r.config.label(), r.elapsed) for r in sweep_par.rows]
    assert ([(r.config.label(), r.elapsed) for r in sweep_ana.rows]
            == [(r.config.label(), r.elapsed) for r in sweep_ana_warm.rows])
    assert all(r.engine == "analytic" for r in sweep_ana_warm.rows)

    prof_off, prof_on = _profiling_overhead(args.app)

    payload = {
        "benchmark": "f1-sweep-timing",
        "app": args.app,
        "configs": len(configs),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "workers": workers,
        "serial_cold_s": round(t_cold, 4),
        "serial_warm_cache_s": round(t_warm, 4),
        "parallel_s": round(t_par, 4),
        "parallel_note": ("single-CPU host: parallel leg measures pool "
                          "overhead, not speedup"
                          if cpu_count == 1 else None),
        "warm_speedup_x": round(t_cold / max(t_warm, 1e-9), 1),
        "parallel_speedup_x": round(t_cold / max(t_par, 1e-9), 2),
        "analytic_cold_s": round(t_ana_cold, 4),
        "analytic_warm_cache_s": round(t_ana_warm, 4),
        "analytic_speedup_x": round(t_cold / max(t_ana_cold, 1e-9), 1),
        "profiling_off_s": round(prof_off, 4),
        "profiling_on_s": round(prof_on, 4),
        "profiling_overhead_x": round(prof_on / max(prof_off, 1e-9), 2),
        "telemetry_off_s": round(t_tel_off, 4),
        "telemetry_on_s": round(t_tel_on, 4),
        "telemetry_overhead_pct": round(
            100.0 * (t_tel_on - t_tel_off) / max(t_tel_off, 1e-9), 2),
        "service_clients": _SERVICE_CLIENTS,
        "service_serial_s": round(t_svc_serial, 4),
        "service_concurrent_s": round(t_svc_fleet, 4),
        "service_dedup_speedup_x": round(
            t_svc_serial / max(t_svc_fleet, 1e-9), 2),
        "service_executed": svc_stats["executed"],
        "service_dedup_hits": svc_stats["dedup_hits"]
        + svc_stats["cache_hits"],
        "service_overload_queue": _OVERLOAD_QUEUE,
        "service_overload_clients": 2 * _OVERLOAD_QUEUE,
        "service_overload_p95_wait_s": round(p95_wait, 4),
        "service_overload_rejected": n_rejected,
        "service_reject_rate": round(reject_rate, 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))

    status = 0
    if payload["warm_speedup_x"] < 5:
        print("WARNING: warm-cache speedup below the 5x target",
              file=sys.stderr)
        status = 1
    if payload["analytic_speedup_x"] < 100:
        print("WARNING: analytic-engine cold speedup below the 100x target",
              file=sys.stderr)
        status = 1
    if payload["telemetry_overhead_pct"] >= 3:
        print("WARNING: run-telemetry overhead at or above the 3% budget",
              file=sys.stderr)
        status = 1
    if payload["service_executed"] != len(configs):
        print("WARNING: service leg simulated a config more than once "
              "(fleet-wide dedup broke)", file=sys.stderr)
        status = 1
    if payload["service_dedup_speedup_x"] < 1.5:
        print("WARNING: service dedup speedup below the 1.5x target",
              file=sys.stderr)
        status = 1
    if payload["service_reject_rate"] <= 0:
        print("WARNING: overload leg never engaged backpressure "
              "(no submission met a full queue)", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
