"""Performance analysis: roofline placement and bottleneck attribution.

Mirrors the paper's analysis section: for each miniapp kernel, where does
it sit on the machine's roofline (arithmetic intensity vs. attainable
FLOP/s), and which resource bounds each phase of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compile.compiler import CompiledKernel, Compiler
from repro.compile.options import CompilerOptions, PRESETS
from repro.kernels.kernel import LoopKernel
from repro.kernels.timing import PhaseTiming, phase_time
from repro.kernels.workingset import level_traffic
from repro.machine.topology import Cluster
from repro.miniapps.base import MiniApp


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position on a machine roofline."""

    kernel: str
    arithmetic_intensity: float      # FLOPs per DRAM byte
    attainable_gflops: float         # per-core ceiling at that intensity
    achieved_gflops: float           # model-predicted per-core performance
    bound: str

    @property
    def memory_bound(self) -> bool:
        return self.bound in ("dram", "l2", "latency")


@dataclass(frozen=True)
class Roofline:
    """Machine ceilings (per core, with fair bandwidth shares)."""

    name: str
    peak_gflops: float               # per-core fp64 peak
    mem_bandwidth_gbytes: float      # per-core fair share of sustained BW

    @property
    def ridge_intensity(self) -> float:
        """AI at which compute and memory ceilings meet."""
        return self.peak_gflops / self.mem_bandwidth_gbytes

    def attainable(self, intensity: float) -> float:
        return min(self.peak_gflops, intensity * self.mem_bandwidth_gbytes)


def machine_roofline(cluster: Cluster) -> Roofline:
    """Per-core roofline of a node with every core active."""
    dom = cluster.node.chips[0].domains[0]
    share = dom.memory.per_stream_bandwidth(dom.n_cores)
    return Roofline(
        name=cluster.name,
        peak_gflops=dom.core.peak_flops_fp64 / 1e9,
        mem_bandwidth_gbytes=share / 1e9,
    )


def roofline_phase(
    kernel: LoopKernel,
    cluster: Cluster,
    options: CompilerOptions | None = None,
) -> tuple[CompiledKernel, PhaseTiming]:
    """One kernel compiled for the cluster's core and timed with every
    core of its NUMA domain active: the phase a roofline point places."""
    dom = cluster.node.chips[0].domains[0]
    opts = options if options is not None else PRESETS["kfast"]
    ck = Compiler(opts).compile(kernel, dom.core)
    return ck, phase_time(
        ck, 1e6, dom.core, dom.l1d, dom.l2,
        mem_bandwidth_share=dom.memory.per_stream_bandwidth(dom.n_cores),
        l2_bandwidth_share=dom.l2_bandwidth_share(dom.n_cores),
        mem_latency_s=dom.memory.latency_s,
    )


def kernel_roofline_point(
    kernel: LoopKernel,
    cluster: Cluster,
    options: CompilerOptions | None = None,
) -> RooflinePoint:
    """Place one kernel on a cluster's roofline (all cores active)."""
    dom = cluster.node.chips[0].domains[0]
    traffic = level_traffic(kernel, dom.l1d, dom.l2)
    pt = roofline_phase(kernel, cluster, options)[1]
    roof = machine_roofline(cluster)
    ai = kernel.dram_arithmetic_intensity(traffic.dram_bytes)
    return RooflinePoint(
        kernel=kernel.name,
        arithmetic_intensity=ai,
        attainable_gflops=roof.attainable(ai),
        achieved_gflops=pt.achieved_flops_per_s / 1e9,
        bound=pt.bound,
    )


def app_roofline(app: MiniApp, cluster: Cluster, dataset: str = "as-is",
                 options: CompilerOptions | None = None) -> list[RooflinePoint]:
    """Roofline points for every kernel of a miniapp."""
    ds = app.dataset(dataset)
    return [
        kernel_roofline_point(k, cluster, options)
        for k in app.kernels(ds).values()
    ]


def bottleneck_summary(points: list[RooflinePoint]) -> str:
    """Verdict string ("memory-bound", "compute-bound", "mixed")."""
    if not points:
        return "unknown"
    mem = sum(1 for p in points if p.memory_bound)
    if mem == len(points):
        return "memory-bound"
    if mem == 0:
        return "compute-bound"
    return "mixed"
