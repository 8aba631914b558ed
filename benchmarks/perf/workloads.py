"""The four benchmark workloads: seeded plans and the code that drives them.

A *plan* maps phase names to lists of :class:`Request` objects.  The
seed sets the order of requests and of configs inside each request, how
configs are grouped into service jobs and which configs a job repeats.
It never changes which configs are included, so the row digest of a
workload is the same for every seed.

Every workload drives the public API the way users do: library sweeps
through :func:`repro.core.runner.run_sweep` (looked up at call time, so
the tracer's wrapper is seen) and service jobs through
:meth:`repro.service.ServiceClient.run_sweep`.  Program defaults stay:
run telemetry is on, the lint gate runs and the advise gate is off.

A plan is one *round*, sized to take 1-3 s on the reference host (see
:mod:`hostspeed`), so that a run of the benchmark holds several rounds.
Set-up ends with a warm-up request of configs outside the plan, so that
lazy set-up of the process (imports, memo tables, the service's pool
workers) is done, and timed as set-up, before the measured requests.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core import runner
from repro.core.cache import ResultCache, config_digest
from repro.core.experiment import (
    ALLOCATION_SWEEP,
    COMPILER_SWEEP,
    MPI_OMP_CONFIGS,
    STRIDE_SWEEP,
    ExperimentConfig,
)
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.runtime.openmp import DATA_POLICIES
from hostspeed import HostSpeed, pinned
from tracing import Tracer

APPS = ("ccs-qcd", "ffb", "ffvc", "modylas", "mvmc", "ngsa", "nicam-dc",
        "ntchem")

#: The apps whose event-engine F1 sweep takes under a second on the
#: reference host (ccs-qcd, ffb and ffvc take 4-8 s each).
EVENT_APPS = ("modylas", "mvmc", "ngsa", "nicam-dc", "ntchem")

#: Client threads of service-mix.  A round runs on one CPU (see
#: :mod:`hostspeed`), so the service gets one pool worker: with two
#: workers on two CPUs of a shared 2-vCPU host, run medians moved by
#: 16% within minutes, through contention the calibration cannot see.
SERVICE_CLIENTS = 2


@dataclass(frozen=True)
class Request:
    """One sweep request: a ``run_sweep`` call or one service job."""

    name: str
    engine: str
    configs: tuple[ExperimentConfig, ...]


def f1_configs(app: str, dataset: str = "as-is", stride: int = 1,
               allocation: str = "block", preset: str = "kfast",
               policy: str = "first-touch") -> list[ExperimentConfig]:
    """The MPI x OpenMP grid at one point of the other axes.

    The 6x8 split is left out under ``domain-pack``: with compact
    binding it does not fit a node, and the cell is dropped at every
    stride so the grid's shape does not depend on the stride.
    """
    binding = ThreadBinding() if stride == 1 \
        else ThreadBinding("stride", stride)
    return [
        ExperimentConfig(app=app, dataset=dataset, n_ranks=ranks,
                         n_threads=threads, binding=binding,
                         allocation=ProcessAllocation(allocation),
                         options_preset=preset, data_policy=policy)
        for ranks, threads in MPI_OMP_CONFIGS
        if not (allocation == "domain-pack" and (ranks, threads) == (6, 8))
    ]


#: Warm-up configs, in no plan: ntchem's ``large`` data set with the
#: ``kfast`` preset.
WARM_UP = tuple(f1_configs("ntchem", "large"))


#: The compiler presets of the design grids: the first and last of the
#: tuning progression.
DSE_PRESETS = (COMPILER_SWEEP[0], COMPILER_SWEEP[-1])


def dse_requests(datasets: tuple[str, ...]) -> list[Request]:
    """One analytic F1 request per design point, in canonical order: 8
    apps x ``datasets`` x 4 strides x 4 allocations x 2 presets, with
    first-touch data."""
    points = itertools.product(APPS, datasets, STRIDE_SWEEP,
                               ALLOCATION_SWEEP, DSE_PRESETS,
                               ("first-touch",))
    return [Request(f"dse-{i}", "analytic", tuple(f1_configs(*point)))
            for i, point in enumerate(points)]


def _shuffled(rng: random.Random, requests: list[Request]) -> list[Request]:
    """A seeded reordering of the requests and of each one's configs."""
    out = []
    for req in requests:
        configs = list(req.configs)
        rng.shuffle(configs)
        out.append(Request(req.name, req.engine, tuple(configs)))
    rng.shuffle(out)
    return out


def _service_jobs(rng: random.Random) -> list[Request]:
    """108 event jobs and 140 analytic jobs in one seeded order.

    Each event job holds 2 fresh configs of the 216-config pool (mvmc,
    ngsa and ntchem, whose configs take a few milliseconds, so that the
    service's own layers weigh; x 4 strides x 2 data policies x 9
    splits) and 2 repeats drawn from configs planned before it (its own
    fresh ones included), so exactly half the event config requests
    share work through the cache or in-flight dedup.  Each analytic job
    holds 8 configs of the 1,120-config ``large`` first-touch ``tuned``
    pool (8 apps x 4 strides x 4 allocations), each used once.
    """
    event_pool = [
        config
        for app in ("mvmc", "ngsa", "ntchem") for stride in STRIDE_SWEEP
        for policy in DATA_POLICIES
        for config in f1_configs(app, stride=stride, policy=policy)
    ]
    analytic_pool = [
        config
        for app in APPS for stride in STRIDE_SWEEP
        for allocation in ALLOCATION_SWEEP
        for config in f1_configs(app, "large", stride, allocation, "tuned")
    ]
    rng.shuffle(event_pool)
    rng.shuffle(analytic_pool)
    kinds = ["event"] * (len(event_pool) // 2) \
        + ["analytic"] * (len(analytic_pool) // 8)
    rng.shuffle(kinds)
    fresh = {"event": iter(event_pool), "analytic": iter(analytic_pool)}
    planned: list[ExperimentConfig] = []
    jobs = []
    for k, kind in enumerate(kinds):
        if kind == "event":
            configs = [next(fresh["event"]) for _ in range(2)]
            planned.extend(configs)
            configs += rng.sample(planned, 2)
        else:
            configs = [next(fresh["analytic"]) for _ in range(8)]
        jobs.append(Request(f"job-{k}", kind, tuple(configs)))
    return jobs


def build_plan(workload: str, seed: int) -> dict[str, list[Request]]:
    """The seeded plan of one workload (see the module docstring)."""
    rng = random.Random(seed)
    if workload == "event-f1":
        # one config per request, so that the latency percentiles are
        # over 45 points rather than 5 apps
        requests = [Request(f"{app}-{config.n_ranks}x{config.n_threads}",
                            "event", (config,))
                    for app in EVENT_APPS for config in f1_configs(app)]
        return {"sweep": _shuffled(rng, requests)}
    if workload == "analytic-dse":
        return {"sweep": _shuffled(rng, dse_requests(("as-is", "large")))}
    if workload == "service-mix":
        return {"jobs": _service_jobs(rng)}
    if workload == "store-session":
        # every write re-reads the whole journal, so writes grow
        # quadratic: 256 take about as long as the 2 read passes
        grid = dse_requests(("as-is",))
        plan = {"write": _shuffled(rng, grid)}
        for p in range(2):
            plan[f"read-{p}"] = _shuffled(rng, grid)
        return plan
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def row_digest(rows: list[Any]) -> str:
    """sha256 over the sorted, de-duplicated (config digest, engine,
    ``repr`` of each row float) tuples.

    Duplicates collapse, so repeats do not change the digest; the same
    config returned with two different rows yields two entries, so an
    inconsistent repeat does.
    """
    unique = {(row.config, row.engine, row.elapsed, row.gflops,
               row.dram_gbytes_per_s, row.comm_fraction) for row in rows}
    keys = {" ".join((config_digest(config), engine,
                      *(repr(x) for x in floats)))
            for config, engine, *floats in unique}
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def _tree_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file())


@dataclass
class Outcome:
    """What one run of a workload's plan produced."""

    attempted: int = 0
    failed: int = 0
    #: ``time.perf_counter()`` at the start and end of the measured run.
    start: float = 0.0
    end: float = 0.0
    #: (request kind, start, end) per request, in completion order.
    latencies: list[tuple[str, float, float]] = field(default_factory=list)
    #: Configs per request kind, for per-kind throughput.
    kind_configs: dict[str, int] = field(default_factory=dict)
    rows: list[Any] = field(default_factory=list)
    #: Per-layer numbers measured outside the tracer.
    layer_extra: dict[str, float] = field(default_factory=dict)

    def note(self, kind: str, request: Request, start: float, end: float,
             result: Any) -> None:
        """Account one finished request (``result=None``: it raised)."""
        n = len(request.configs)
        self.attempted += n
        self.kind_configs[kind] = self.kind_configs.get(kind, 0) + n
        self.latencies.append((kind, start, end))
        if result is None:
            self.failed += n
        else:
            self.failed += len(result.errors)
            self.rows.extend(result.rows)


class Workload:
    """Set-up in ``__init__`` (what ``setup_s`` times), then :meth:`run`
    once, then :meth:`close`."""

    def __init__(self, plan: dict[str, list[Request]], workdir: Path,
                 tracer: Tracer) -> None:
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer

    @staticmethod
    def _warm_up(engine: str) -> None:
        """One uncached sweep of a config in no plan."""
        runner.run_sweep("warm-up", list(WARM_UP[:1]), None, engine=engine)

    def _sweep(self, out: Outcome, kind: str, request: Request,
               cache: Any) -> None:
        start = time.perf_counter()
        with self.tracer.request(request.name):
            try:
                result = runner.run_sweep(
                    request.name, list(request.configs), cache,
                    engine=request.engine, errors="capture")
            except Exception:  # noqa: BLE001 - counted as failed configs
                result = None
        out.note(kind, request, start, time.perf_counter(), result)

    def run(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class EventF1(Workload):
    """The F1 grids of 5 apps, one serial event-engine sweep per config,
    against one cold persistent cache, as first ``repro run`` calls
    do."""

    def __init__(self, plan, workdir, tracer) -> None:
        super().__init__(plan, workdir, tracer)
        self.cache = ResultCache(workdir / "cache")
        self._warm_up("event")

    def run(self) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for request in self.plan["sweep"]:
            self._sweep(out, "sweep", request, self.cache)
        out.end = time.perf_counter()
        return out


class AnalyticDSE(Workload):
    """Design-space exploration: one uncached analytic F1 sweep per
    design point, in seeded order."""

    def __init__(self, plan, workdir, tracer) -> None:
        super().__init__(plan, workdir, tracer)
        self._warm_up("analytic")

    def run(self) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for request in self.plan["sweep"]:
            self._sweep(out, "sweep", request, None)
        out.end = time.perf_counter()
        return out


class StoreSession(Workload):
    """Writes then reads on the durable stores: one long-lived cache
    scores, stores and journals every request; each read pass then
    re-runs all requests through a fresh cache (one load, then hits)."""

    def __init__(self, plan, workdir, tracer) -> None:
        super().__init__(plan, workdir, tracer)
        self.cache = ResultCache(workdir / "cache")
        self._warm_up("analytic")

    def run(self) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for phase, requests in self.plan.items():
            kind = "write" if phase == "write" else "read"
            cache = self.cache if kind == "write" \
                else ResultCache(self.workdir / "cache")
            for request in requests:
                self._sweep(out, kind, request, cache)
        out.end = time.perf_counter()
        return out


class ServiceMix(Workload):
    """A closed loop of clients against an in-thread sweep service.

    Set-up starts the server, connects the clients and warms the service
    up with one event job (which starts the pool worker) and one
    analytic job, both outside the plan's pools.
    """

    def __init__(self, plan, workdir, tracer) -> None:
        from repro.service import ServiceClient, SweepService, serve_in_thread

        super().__init__(plan, workdir, tracer)
        socket_path = workdir / "service.sock"
        self.service = SweepService(
            socket_path, cache=ResultCache(workdir / "cache"),
            workers=1, max_jobs=SERVICE_CLIENTS)
        self.cpu_before = self._children_cpu()
        self.thread = serve_in_thread(self.service)
        self.clients = [
            ServiceClient(socket_path, client_name=f"client-{i}").connect()
            for i in range(SERVICE_CLIENTS)]
        for engine, config in (("event", WARM_UP[0]),
                               ("analytic", WARM_UP[-1])):
            self.clients[0].run_sweep(f"warm-up-{engine}", [config],
                                      engine=engine)
        self.warm_stats = self.service.stats()

    @staticmethod
    def _children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def run(self) -> Outcome:
        out = Outcome()
        jobs = iter(self.plan["jobs"])
        lock = threading.Lock()

        def loop(client: Any) -> None:
            while True:
                with lock:
                    job = next(jobs, None)
                if job is None:
                    return
                start = time.perf_counter()
                with self.tracer.request(job.name):
                    try:
                        result = client.run_sweep(
                            job.name, list(job.configs), engine=job.engine)
                    except Exception:  # noqa: BLE001 - counted as failed
                        result = None
                end = time.perf_counter()
                with lock:
                    out.note(job.engine, job, start, end, result)

        threads = [threading.Thread(target=loop, args=(client,))
                   for client in self.clients]
        out.start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.end = time.perf_counter()
        out.layer_extra = self._scheduler_numbers()
        self.close()
        out.layer_extra["service.scheduler.worker_cpu_s"] = \
            self._children_cpu() - self.cpu_before
        return out

    def _scheduler_numbers(self) -> dict[str, float]:
        """The plan's jobs only: the warm-up is left out."""
        jobs = [j for j in self.service.jobs.values()
                if not j.spec.name.startswith("warm-up-")]
        stats = {k: v - self.warm_stats[k]
                 for k, v in self.service.stats().items()
                 if k in ("cache_hits", "dedup_hits", "executed")}
        waits = [j.started_at - j.submitted_at for j in jobs
                 if j.started_at is not None]
        shared = stats["cache_hits"] + stats["dedup_hits"]
        event_requests = sum(j.n_configs for j in jobs
                             if j.spec.engine == "event")
        numbers = {
            "service.scheduler.queue_wait_p50_s": percentile(waits, 0.5),
            "service.scheduler.queue_wait_p95_s": percentile(waits, 0.95),
            "service.scheduler.executed": stats["executed"],
            "service.scheduler.shared_hits": shared,
            "service.scheduler.shared_ratio":
                shared / event_requests if event_requests else 0.0,
        }
        for engine in ("event", "analytic"):
            spans = [j.finished_at - j.started_at for j in jobs
                     if j.spec.engine == engine
                     and j.finished_at is not None
                     and j.started_at is not None]
            numbers[f"service.scheduler.{engine}_execute_p50_s"] = \
                percentile(spans, 0.5) if spans else 0.0
        return numbers

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.thread.stop()


WORKLOADS: dict[str, type[Workload]] = {
    "event-f1": EventF1,
    "analytic-dse": AnalyticDSE,
    "service-mix": ServiceMix,
    "store-session": StoreSession,
}


def run_round(workload: str, seed: int, workdir: Path, *,
              trace: bool = False,
              plan: dict[str, list[Request]] | None = None,
              launched: float | None = None,
              speed: HostSpeed | None = None) -> dict[str, Any]:
    """Set up, run and measure one workload plan in this process.

    ``setup_s`` runs from ``launched``, the ``time.perf_counter()`` at
    which this process was started (default: the call), to the end of
    the workload's set-up.  The round runs pinned to one CPU, and
    ``speed`` is a :class:`HostSpeed` started on it (default: one
    started here); it is stopped before returning.  Every time is in
    seconds of the reference host (see :mod:`hostspeed`); ``raw`` keeps
    the wall-clock figures.

    Telemetry writes under ``$REPRO_RESULTS_DIR``; the caller points it
    (and the other ``REPRO_*`` variables) at a scratch directory.
    """
    launched = time.perf_counter() if launched is None else launched
    plan = plan if plan is not None else build_plan(workload, seed)
    workdir = Path(workdir)
    tracer = Tracer()
    with pinned():
        speed = speed if speed is not None else HostSpeed().start()
        try:
            session = WORKLOADS[workload](plan, workdir, tracer)
            ready = time.perf_counter()
            try:
                if trace:
                    tracer.install()
                try:
                    out = session.run()
                finally:
                    tracer.uninstall()
            finally:
                session.close()
        finally:
            speed.stop()

    reference_s = speed.reference_seconds
    wall_s = out.end - out.start
    measured_s = reference_s(out.start, out.end)
    latencies: dict[str, list[float]] = {}
    for kind_name, start, end in out.latencies:
        latencies.setdefault(kind_name, []).append(reference_s(start, end))
    result: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "attempted": out.attempted,
        "failed": out.failed,
        "digest": row_digest(out.rows),
        "wall_s": wall_s,
        "measured_s": measured_s,
        "host_factor": wall_s / measured_s,
        "requests": len(out.latencies),
        "setup_s": reference_s(launched, ready),
        "configs_per_s": out.attempted / measured_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies": latencies,
        "kind_configs": out.kind_configs,
        "raw": {"setup_s": ready - launched,
                "configs_per_s": out.attempted / wall_s},
    }
    if trace:
        results_dir = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
        layers = tracer.layer_table(wall_s)
        layers.update(out.layer_extra)
        # times in reference seconds, like the end-to-end metrics
        layers = {k: v * measured_s / wall_s if k.endswith("_s") else v
                  for k, v in layers.items()}
        layers["core.cache.file_bytes"] = \
            _tree_bytes(workdir, ResultCache.FILENAME)
        layers["core.journal.file_bytes"] = \
            _tree_bytes(workdir, "sweep-journal.jsonl")
        layers["telemetry.bytes_written"] = _tree_bytes(results_dir, "*")
        result["layers"] = layers
        result["spans"] = tracer.spans()
    return result


def summarize(rounds: list[dict[str, Any]]
              ) -> tuple[dict[str, float], dict[str, float]]:
    """(end-to-end values, per-request-kind details) of a run's rounds.

    Set-up time, memory and throughput are medians over the rounds.  The
    latency percentiles are over the requests of all rounds together, so
    that the p95 has enough samples beyond it; the details give each
    kind's percentiles, sample count (e.g. ``event_p95_s``, ``event_n``)
    and throughput.
    """
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        for kind, seconds in r["latencies"].items():
            pooled.setdefault(kind, []).extend(seconds)
    # The latency metrics follow the request kind that takes longest
    # (writes in store-session, event jobs in service-mix): a percentile
    # over a mix of 1 ms reads and 10 ms writes lands wherever the mix
    # puts it, and swung 50% between runs.
    slowest = max(pooled, key=lambda k: statistics.median(pooled[k]))
    values = {key: statistics.median(r[key] for r in rounds)
              for key in ("setup_s", "peak_rss_mb", "configs_per_s")}
    values["request_p50_s"] = statistics.median(pooled[slowest])
    values["request_p95_s"] = percentile(pooled[slowest], 0.95)
    details = {"requests_per_s": statistics.median(
        r["requests"] / r["measured_s"] for r in rounds)}
    for kind, seconds in pooled.items():
        details[f"{kind}_n"] = len(seconds)
        details[f"{kind}_p50_s"] = statistics.median(seconds)
        details[f"{kind}_p95_s"] = percentile(seconds, 0.95)
        details[f"{kind}_configs_per_s"] = statistics.median(
            r["kind_configs"][kind] / sum(r["latencies"][kind])
            for r in rounds)
    return values, details
