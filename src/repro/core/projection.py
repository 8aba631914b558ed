"""Simplified Sustained System Performance (SSSP) projection.

Implements the methodology of the authors' companion paper ("A Performance
Projection of Mini-Applications onto Benchmarks", Tsuji, Kramer & Sato):
approximate each miniapp's runtime on a machine as a non-negative weighted
sum of simple microbenchmark times measured on that machine::

    t_app(machine) ~= sum_b  w_b * t_b(machine)

The weights ``w_b`` are learned (non-negative least squares) over a
training set of machines and then *project* the app's performance onto
machines outside the training set — the cheap procurement-style estimate
the SSSP metric provides.

The microbenchmark basis spans the resource axes of this study: streaming
bandwidth, dense compute, gather/latency, and scalar-integer throughput.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.optimize

from repro.compile.compiler import Compiler
from repro.compile.options import PRESETS
from repro.core.report import Table
from repro.errors import ConfigurationError
from repro.kernels import presets
from repro.kernels.kernel import LoopKernel
from repro.machine import catalog
from repro.machine.memory import MemorySpec
from repro.machine.topology import Cluster
from repro.miniapps import by_name
from repro.runtime.executor import run_job
from repro.runtime.openmp import region_time
from repro.runtime.placement import JobPlacement
from repro.runtime.program import Compute
from repro.units import GB_S, GIB, NS

#: The microbenchmark basis (name -> kernel).
MICROBENCHMARKS: dict[str, LoopKernel] = {
    "stream": presets.stream_triad(),
    "dgemm": presets.dgemm_blocked(),
    "gather": presets.spmv_csr(30, 8.0 * 1024 * 1024),
    "scalar-int": presets.integer_compare_scan(64e3),
}

#: Iterations per microbenchmark — large enough that fork/join overhead is
#: negligible even for the cheap per-iteration dgemm kernel.
_MICRO_ITERS = 50_000_000.0


def microbenchmark_times(cluster: Cluster) -> dict[str, float]:
    """Full-node time of each microbenchmark on ``cluster`` (seconds)."""
    core = cluster.node.chips[0].domains[0].core
    compiler = Compiler(PRESETS["kfast"])
    placement = JobPlacement(cluster, 1, cluster.cores_per_node)
    out: dict[str, float] = {}
    for name, kernel in MICROBENCHMARKS.items():
        ck = compiler.compile(kernel, core)
        rt = region_time(
            ck, Compute(name, iters=_MICRO_ITERS),
            placement.thread_cores(0), cluster,
            placement.threads_per_domain, placement.home_domain(0),
            "first-touch",
        )
        out[name] = rt.seconds
    return out


def app_time(app_name: str, cluster: Cluster, dataset: str = "as-is") -> float:
    """Simulated full-node runtime of one miniapp on ``cluster``."""
    app = by_name(app_name)
    n_domains = cluster.domains_per_node
    threads = cluster.cores_per_node // n_domains
    placement = JobPlacement(cluster, n_domains, threads)
    return run_job(app.build_job(cluster, placement, dataset)).elapsed


# ----------------------------------------------------------------------
# machine pool: catalog processors + A64FX design variants, so the fit
# has more observations than weights
# ----------------------------------------------------------------------
def _a64fx_ddr4() -> Cluster:
    ddr4 = MemorySpec(kind="DDR4", capacity_bytes=32 * GIB,
                      peak_bandwidth=42.6 * GB_S, sustained_fraction=0.8,
                      single_stream_bandwidth=13 * GB_S, latency_s=90 * NS)
    return catalog.a64fx_variant(
        lambda cmg: dataclasses.replace(cmg, memory=ddr4), name="A64FX-DDR4")


def machine_pool() -> dict[str, Cluster]:
    """Training/evaluation machines: the catalog + A64FX variants."""
    return {
        "A64FX": catalog.a64fx(),
        "A64FX-eco": dataclasses.replace(catalog.a64fx(eco=True),
                                         name="A64FX-eco"),
        "A64FX-boost": dataclasses.replace(catalog.a64fx(boost=True),
                                           name="A64FX-boost"),
        "A64FX-DDR4": _a64fx_ddr4(),
        "Xeon-Skylake": catalog.xeon_skylake(),
        "ThunderX2": catalog.thunderx2(),
        "SPARC64-VIIIfx": catalog.sparc64_viiifx(),
    }


@dataclasses.dataclass(frozen=True)
class SsspModel:
    """Fitted projection model for one miniapp."""

    app: str
    dataset: str
    benchmark_names: tuple[str, ...]
    weights: np.ndarray
    training_machines: tuple[str, ...]
    training_residual: float
    mean_benchmark_times: np.ndarray

    def predict(self, micro_times: dict[str, float]) -> float:
        """Projected app runtime from a machine's microbenchmark vector."""
        vec = np.array([micro_times[b] for b in self.benchmark_names])
        return float(self.weights @ vec)

    def contributions(self) -> dict[str, float]:
        """Mean predicted-time share of each basis benchmark."""
        raw = self.weights * self.mean_benchmark_times
        total = float(raw.sum()) or 1.0
        return {b: float(v) / total
                for b, v in zip(self.benchmark_names, raw)}

    def dominant_benchmark(self) -> str:
        """The benchmark carrying the largest predicted-time share."""
        contrib = self.contributions()
        return max(contrib, key=contrib.__getitem__)


def fit(app_name: str, machines: dict[str, Cluster],
        dataset: str = "as-is") -> SsspModel:
    """Fit non-negative weights over the given training machines."""
    if len(machines) < len(MICROBENCHMARKS):
        raise ConfigurationError(
            "need at least as many training machines as benchmarks"
        )
    names = tuple(MICROBENCHMARKS)
    rows = []
    targets = []
    for mname, cluster in machines.items():
        micro = microbenchmark_times(cluster)
        rows.append([micro[b] for b in names])
        targets.append(app_time(app_name, cluster, dataset))
    a = np.asarray(rows)
    b = np.asarray(targets)
    weights, residual = scipy.optimize.nnls(a, b)
    rel_residual = residual / float(np.linalg.norm(b))
    return SsspModel(
        app=app_name,
        dataset=dataset,
        benchmark_names=names,
        weights=weights,
        training_machines=tuple(machines),
        training_residual=rel_residual,
        mean_benchmark_times=a.mean(axis=0),
    )


def leave_one_out(app_name: str, held_out: str,
                  dataset: str = "as-is") -> tuple[float, float, SsspModel]:
    """Fit on all pool machines except ``held_out``; project onto it.

    Returns (predicted seconds, actual seconds, model).
    """
    pool = machine_pool()
    if held_out not in pool:
        raise ConfigurationError(
            f"unknown machine {held_out!r}; pool: {sorted(pool)}"
        )
    target = pool.pop(held_out)
    model = fit(app_name, pool, dataset)
    predicted = model.predict(microbenchmark_times(target))
    actual = app_time(app_name, target, dataset)
    return predicted, actual, model


def a4_sssp_projection(
    apps: list[str] | None = None,
    held_out: str = "ThunderX2",
    dataset: str = "as-is",
) -> tuple[Table, dict[str, tuple[float, float, SsspModel]]]:
    """A4 artifact: projection quality per miniapp on a held-out machine."""
    apps = apps if apps is not None else ["ffvc", "ntchem", "ngsa", "ccs-qcd"]
    t = Table(
        f"A4: SSSP projection onto held-out {held_out} ({dataset})",
        ["miniapp", "predicted ms", "actual ms", "error %",
         "dominant benchmark"],
        note="weights fitted by NNLS over the remaining machine pool "
             "(the companion SSSP-metric methodology)",
    )
    data: dict[str, tuple[float, float, SsspModel]] = {}
    for app in apps:
        predicted, actual, model = leave_one_out(app, held_out, dataset)
        data[app] = (predicted, actual, model)
        err = abs(predicted - actual) / actual * 100
        t.add(app, predicted * 1e3, actual * 1e3, err,
              model.dominant_benchmark())
    return t, data
