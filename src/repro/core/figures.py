"""One entry point per paper table/figure (see DESIGN.md experiment index).

Every function regenerates one artifact as a :class:`~repro.core.report.Table`
(plus, where useful, the raw sweep data).  :data:`repro.artifacts.ARTIFACTS`
names each one for ``repro figure`` and ``repro report``; the examples
call a subset.

The IDs are assigned by this project — the source text provided only the
paper's abstract (DESIGN.md documents this), so these reconstruct the
experiment matrix the abstract describes.
"""

from __future__ import annotations

from repro.compile.options import PRESETS
from repro.core import analysis
from repro.core.compare import compare_processors
from repro.core.experiment import (
    ALLOCATION_SWEEP,
    COMPILER_SWEEP,
    MPI_OMP_CONFIGS,
    STRIDE_SWEEP,
    ExperimentConfig,
    f1_configs,
)
from repro.core.metrics import spread
from repro.core.report import Table
from repro.core.runner import SweepResult, run_sweep
from repro.machine import catalog
from repro.miniapps import SUITE
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.units import fmt_bw, fmt_rate

#: Default app subsets per experiment (full suite unless an experiment is
#: specifically about the poorly performing apps).
TUNING_APPS = ["ngsa", "mvmc", "ffb"]


# ----------------------------------------------------------------------
# T1 — processor specifications
# ----------------------------------------------------------------------
def t1_processor_specs() -> Table:
    t = Table(
        "T1: Evaluated processors (one node each)",
        ["processor", "cores", "SIMD", "freq GHz", "peak fp64",
         "mem BW", "network"],
    )
    for name in catalog.PROCESSORS:
        c = catalog.by_name(name)
        dom = c.node.chips[0].domains[0]
        t.add(
            name,
            c.cores_per_node,
            f"{dom.core.simd_bits}-bit x{dom.core.fma_pipes}",
            dom.core.freq_hz / 1e9,
            fmt_rate(c.node.peak_flops_fp64),
            fmt_bw(c.node.peak_memory_bandwidth),
            c.network.name,
        )
    return t


# ----------------------------------------------------------------------
# T2 — the miniapp suite
# ----------------------------------------------------------------------
def t2_miniapp_table() -> Table:
    t = Table(
        "T2: Fiber Miniapp Suite",
        ["miniapp", "full name", "character", "as-is dataset", "large dataset"],
    )
    for app in SUITE.values():
        t.add(
            app.name,
            app.full_name,
            app.character,
            app.dataset("as-is").description,
            app.dataset("large").description,
        )
    return t


# ----------------------------------------------------------------------
# F1 — MPI x OpenMP sweep (single A64FX node)
# ----------------------------------------------------------------------
def f1_mpi_omp_sweep(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    processor: str = "A64FX",
    configs: list[tuple[int, int]] | None = None,
    cache=None,
    workers: int = 1,
    resume: bool = False,
    engine: str = "event",
) -> tuple[Table, dict[str, SweepResult]]:
    apps = apps if apps is not None else list(SUITE)
    grid = configs if configs is not None else MPI_OMP_CONFIGS
    tag = "" if engine == "event" else f", {engine} engine"
    t = Table(
        f"F1: time [ms] vs MPI x OpenMP ({processor}, {dataset}{tag})",
        ["miniapp"] + [f"{r}x{h}" for r, h in grid],
        note="rows: miniapps; best configuration per row in T3",
    )
    sweeps: dict[str, SweepResult] = {}
    for app in apps:
        cfgs = f1_configs(app, dataset, processor, grid)
        sweep = run_sweep(f"f1-{app}", cfgs, cache, workers=workers,
                          resume=resume, engine=engine)
        sweeps[app] = sweep
        if sweep.errors:
            # resumed sweeps may quarantine configs: blank those cells
            by_cfg = {row.config: row for row in sweep.rows}
            cells = [by_cfg[c].elapsed * 1e3 if c in by_cfg
                     else float("nan") for c in cfgs]
        else:
            cells = [row.elapsed * 1e3 for row in sweep.rows]
        t.add(app, *cells)
    return t, sweeps


# ----------------------------------------------------------------------
# T3 — best configuration per miniapp (derived from F1)
# ----------------------------------------------------------------------
def t3_best_config(sweeps: dict[str, SweepResult] | None = None,
                   cache=None, workers: int = 1) -> Table:
    if sweeps is None:
        sweeps = f1_mpi_omp_sweep(cache=cache, workers=workers)[1]
    t = Table(
        "T3: best MPI x OpenMP configuration per miniapp",
        ["miniapp", "best config", "time ms", "GFLOP/s", "comm frac"],
    )
    combined = SweepResult(
        "t3", [row for sweep in sweeps.values() for row in sweep.rows]
    )
    for app, row in combined.best_per("app").items():
        t.add(
            app,
            f"{row.config.n_ranks}x{row.config.n_threads}",
            row.elapsed * 1e3,
            row.gflops,
            row.comm_fraction,
        )
    return t


# ----------------------------------------------------------------------
# F2 — thread-stride (binding) comparison
# ----------------------------------------------------------------------
def f2_thread_stride(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    n_ranks: int = 4,
    n_threads: int = 12,
    data_policy: str = "serial-init",
    cache=None,
    workers: int = 1,
) -> tuple[Table, dict[str, SweepResult]]:
    """Stride 1 (compact) vs longer strides at a fixed rank/thread shape.

    ``serial-init`` reflects the suite's Fortran codes, whose per-rank
    arrays are touched by the master thread first — the situation in which
    thread placement interacts with NUMA locality.
    """
    apps = apps if apps is not None else list(SUITE)
    t = Table(
        f"F2: time [ms] vs thread stride ({n_ranks}x{n_threads}, {dataset})",
        ["miniapp"] + [f"stride-{s}" for s in STRIDE_SWEEP]
        + ["stride-1 wins?"],
    )
    sweeps: dict[str, SweepResult] = {}
    for app in apps:
        cfgs = [
            ExperimentConfig(
                app=app, dataset=dataset, n_ranks=n_ranks,
                n_threads=n_threads,
                binding=ThreadBinding.from_stride(s),
                data_policy=data_policy,
            )
            for s in STRIDE_SWEEP
        ]
        sweep = run_sweep(f"f2-{app}", cfgs, cache, workers=workers)
        sweeps[app] = sweep
        times = [row.elapsed for row in sweep.rows]
        t.add(app, *[x * 1e3 for x in times],
              "yes" if times[0] <= min(times) * 1.0001 else "no")
    return t, sweeps


# ----------------------------------------------------------------------
# F3 — MPI process-allocation methods (multi-node)
# ----------------------------------------------------------------------
def f3_process_allocation(
    apps: list[str] | None = None,
    dataset: str = "large",
    n_nodes: int = 4,
    ranks_per_node: int = 4,
    n_threads: int = 12,
    cache=None,
    workers: int = 1,
) -> tuple[Table, dict[str, SweepResult]]:
    apps = apps if apps is not None else list(SUITE)
    t = Table(
        f"F3: time [ms] vs process allocation "
        f"({n_nodes} nodes, {ranks_per_node * n_nodes}x{n_threads}, {dataset})",
        ["miniapp"] + ALLOCATION_SWEEP + ["spread %"],
        note="small spread = allocation method has little impact (paper)",
    )
    sweeps: dict[str, SweepResult] = {}
    for app in apps:
        cfgs = [
            ExperimentConfig(
                app=app, dataset=dataset, n_nodes=n_nodes,
                n_ranks=ranks_per_node * n_nodes, n_threads=n_threads,
                allocation=ProcessAllocation(method),
            )
            for method in ALLOCATION_SWEEP
        ]
        sweep = run_sweep(f"f3-{app}", cfgs, cache, workers=workers)
        sweeps[app] = sweep
        t.add(app, *[row.elapsed * 1e3 for row in sweep.rows],
              spread(sweep.rows) * 100)
    return t, sweeps


# ----------------------------------------------------------------------
# F4 — compiler tuning on "as-is" data
# ----------------------------------------------------------------------
def f4_compiler_tuning(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    n_ranks: int = 4,
    n_threads: int = 12,
    cache=None,
    workers: int = 1,
) -> tuple[Table, dict[str, SweepResult]]:
    apps = apps if apps is not None else TUNING_APPS
    t = Table(
        f"F4: A64FX time [ms] vs compiler options ({dataset})",
        ["miniapp"] + COMPILER_SWEEP + ["gain x"],
        note="gain = as-is / tuned; SIMD + instruction scheduling recover "
             "the A64FX's as-is deficit (paper)",
    )
    sweeps: dict[str, SweepResult] = {}
    for app in apps:
        cfgs = [
            ExperimentConfig(app=app, dataset=dataset, n_ranks=n_ranks,
                             n_threads=n_threads, options_preset=preset)
            for preset in COMPILER_SWEEP
        ]
        sweep = run_sweep(f"f4-{app}", cfgs, cache, workers=workers)
        sweeps[app] = sweep
        times = [row.elapsed for row in sweep.rows]
        t.add(app, *[x * 1e3 for x in times], times[0] / times[-1])
    return t, sweeps


# ----------------------------------------------------------------------
# F5 — cross-processor comparison
# ----------------------------------------------------------------------
def f5_processor_comparison(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    processors: list[str] | None = None,
    cache=None,
    workers: int = 1,
) -> Table:
    apps = apps if apps is not None else list(SUITE)
    procs = processors if processors is not None else list(catalog.PROCESSORS)
    t = Table(
        f"F5: node-vs-node performance relative to A64FX ({dataset})",
        ["miniapp"] + procs,
        note=">1 = that processor's node is faster than the A64FX node",
    )
    for app in apps:
        comp = compare_processors(app, dataset, procs, cache=cache,
                                  workers=workers)
        rel = comp.relative_to("A64FX")
        t.add(app, *[rel[p] for p in procs])
    return t


# ----------------------------------------------------------------------
# F6 — roofline / bottleneck analysis
# ----------------------------------------------------------------------
def f6_roofline(apps: list[str] | None = None,
                dataset: str = "as-is",
                processor: str = "A64FX") -> Table:
    apps = apps if apps is not None else list(SUITE)
    cluster = catalog.by_name(processor)
    roof = analysis.machine_roofline(cluster)
    t = Table(
        f"F6: roofline placement on {processor} "
        f"(core peak {roof.peak_gflops:.1f} GF/s, "
        f"BW share {roof.mem_bandwidth_gbytes:.1f} GB/s, "
        f"ridge {roof.ridge_intensity:.2f} F/B)",
        ["miniapp", "kernel", "AI F/B", "attainable GF/s",
         "achieved GF/s", "bound"],
    )
    for app_name in apps:
        app = SUITE[app_name]
        for p in analysis.app_roofline(app, cluster, dataset):
            ai = "inf" if p.arithmetic_intensity == float("inf") \
                else f"{p.arithmetic_intensity:.2f}"
            t.add(app_name, p.kernel, ai, p.attainable_gflops,
                  p.achieved_gflops, p.bound)
    return t


# ----------------------------------------------------------------------
# F7 — memory-bandwidth scaling (STREAM triad)
# ----------------------------------------------------------------------
def f7_stream_scaling(
    processor: str = "A64FX",
    thread_counts: list[int] | None = None,
) -> tuple[Table, dict]:
    """Aggregate triad bandwidth vs thread count for compact vs scatter."""
    from repro.compile.compiler import Compiler
    from repro.kernels.presets import stream_triad
    from repro.runtime.openmp import region_time
    from repro.runtime.placement import JobPlacement
    from repro.runtime.program import Compute

    cluster = catalog.by_name(processor)
    cores = cluster.cores_per_node
    counts = thread_counts if thread_counts is not None else \
        [1, 2, 4, 6, 8, 12, 16, 24, 32, 48]
    counts = [c for c in counts if c <= cores]
    kernel = stream_triad()
    core = cluster.node.chips[0].domains[0].core
    ck = Compiler(PRESETS["kfast"]).compile(kernel, core)
    iters = 4_000_000

    t = Table(
        f"F7: STREAM triad bandwidth [GB/s] vs threads ({processor})",
        ["threads", "compact", "scatter"],
        note="scatter reaches chip bandwidth with few threads; compact "
             "saturates one CMG first",
    )
    data: dict[str, dict[int, float]] = {"compact": {}, "scatter": {}}
    for n in counts:
        row = [n]
        for policy in ("compact", "scatter"):
            pl = JobPlacement(cluster, 1, n, binding=ThreadBinding(policy))
            rt = region_time(
                ck, Compute("triad", iters=iters), pl.thread_cores(0),
                cluster, pl.threads_per_domain, pl.home_domain(0),
                "first-touch",
            )
            bw = rt.dram_bytes / rt.seconds / 1e9
            data[policy][n] = bw
            row.append(bw)
        t.add(*row)
    return t, data


# ----------------------------------------------------------------------
# F8 — multi-node scaling over the interconnect
# ----------------------------------------------------------------------
def f9_weak_scaling(
    apps: list[str] | None = None,
    node_counts: list[int] | None = None,
    ranks_per_node: int = 4,
    n_threads: int = 12,
) -> tuple[Table, dict[str, list[float]]]:
    """Weak scaling: the problem grows with the node count, so ideal
    scaling keeps the time flat.  Uses the apps that define
    :meth:`~repro.miniapps.base.MiniApp.weak_dataset`.
    """
    from repro.machine import catalog as cat
    from repro.miniapps import by_name
    from repro.runtime.executor import run_job
    from repro.runtime.placement import JobPlacement

    apps = apps if apps is not None else ["ccs-qcd", "ffvc"]
    nodes = node_counts if node_counts is not None else [1, 2, 4, 8]
    t = Table(
        f"F9: weak scaling over Tofu-D ({ranks_per_node} ranks x "
        f"{n_threads} threads per node; problem grows with nodes)",
        ["miniapp"] + [f"{n} node(s)" for n in nodes] + ["efficiency %"],
        note="time in ms; ideal weak scaling is a flat row",
    )
    data: dict[str, list[float]] = {}
    for app_name in apps:
        app = by_name(app_name)
        times = []
        for n in nodes:
            cluster = cat.a64fx(n_nodes=n)
            ds = app.weak_dataset(n)
            placement = JobPlacement(cluster, ranks_per_node * n, n_threads)
            res = run_job(app.build_job(cluster, placement, ds.name))
            times.append(res.elapsed)
        data[app_name] = times
        eff = times[0] / times[-1] * 100.0
        t.add(app_name, *[x * 1e3 for x in times], eff)
    return t, data


def f10_time_breakdown(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    n_ranks: int = 4,
    n_threads: int = 12,
    top_kernels: int = 2,
) -> tuple[Table, dict[str, dict[str, float]]]:
    """Per-app time attribution: dominant kernels, serial regions,
    point-to-point, collectives, I/O (mean over ranks)."""
    from repro.machine import catalog as cat
    from repro.miniapps import by_name
    from repro.runtime.executor import run_job
    from repro.runtime.placement import JobPlacement

    apps = apps if apps is not None else list(SUITE)
    t = Table(
        f"F10: time breakdown [%] ({n_ranks}x{n_threads}, {dataset})",
        ["miniapp", "total ms", "kernel-1", "kernel-2", "serial",
         "p2p", "collective", "io"],
        note="kernel-N = the app's dominant compute kernels by time share",
    )
    data: dict[str, dict[str, float]] = {}
    cluster = cat.a64fx()
    for app_name in apps:
        app = by_name(app_name)
        placement = JobPlacement(cluster, n_ranks, n_threads)
        res = run_job(app.build_job(cluster, placement, dataset))
        n = len(res.traces)
        by_label: dict[str, float] = {}
        cats = {"serial": 0.0, "p2p": 0.0, "collective": 0.0, "io": 0.0}
        for tr in res.traces.values():
            for seg in tr.segments:
                if seg.category == "compute":
                    by_label[seg.label] = by_label.get(seg.label, 0.0) \
                        + seg.duration / n
                elif seg.category in cats:
                    cats[seg.category] += seg.duration / n
        top = sorted(by_label.items(), key=lambda kv: -kv[1])[:top_kernels]
        while len(top) < top_kernels:
            top.append(("-", 0.0))
        total = res.elapsed

        def pct(x: float) -> float:
            return 100.0 * x / total if total > 0 else 0.0

        data[app_name] = {**{k: pct(v) for k, v in by_label.items()},
                          **{k: pct(v) for k, v in cats.items()}}
        t.add(
            app_name,
            total * 1e3,
            f"{top[0][0]} {pct(top[0][1]):.0f}%",
            f"{top[1][0]} {pct(top[1][1]):.0f}%",
            pct(cats["serial"]),
            pct(cats["p2p"]),
            pct(cats["collective"]),
            pct(cats["io"]),
        )
    return t, data


def f8_multinode_scaling(
    apps: list[str] | None = None,
    dataset: str = "large",
    node_counts: list[int] | None = None,
    ranks_per_node: int = 4,
    n_threads: int = 12,
    cache=None,
    workers: int = 1,
) -> tuple[Table, dict[str, SweepResult]]:
    apps = apps if apps is not None else ["ccs-qcd", "ffvc"]
    nodes = node_counts if node_counts is not None else [1, 2, 4, 8]
    t = Table(
        f"F8: strong scaling over Tofu-D ({dataset}, "
        f"{ranks_per_node} ranks x {n_threads} threads per node)",
        ["miniapp"] + [f"{n} node(s)" for n in nodes]
        + ["speedup", "efficiency %"],
        note="time in ms; speedup/efficiency at the largest node count",
    )
    sweeps: dict[str, SweepResult] = {}
    for app in apps:
        cfgs = [
            ExperimentConfig(
                app=app, dataset=dataset, n_nodes=n,
                n_ranks=ranks_per_node * n, n_threads=n_threads,
            )
            for n in nodes
        ]
        sweep = run_sweep(f"f8-{app}", cfgs, cache, workers=workers)
        sweeps[app] = sweep
        times = [row.elapsed for row in sweep.rows]
        sp = times[0] / times[-1]
        eff = sp / (nodes[-1] / nodes[0]) * 100
        t.add(app, *[x * 1e3 for x in times], sp, eff)
    return t, sweeps
