"""Ablation experiments (A1-A3, A5-A6) on the design choices DESIGN.md calls out.

These go beyond the paper's artifacts to exercise the model along the axes
its companion papers study:

* **A1 — SVE vector length** (cf. "Preliminary Performance Evaluation of
  Application Kernels Using ARM SVE with Multiple Vector Lengths"):
  recompile kernels at VL 128/256/512 on the same hardware and measure
  the speedup — compute-bound kernels scale with VL, memory-bound ones
  do not.
* **A2 — power-control modes** (cf. "Evaluation of Power Management
  Control on the Supercomputer Fugaku"): normal / eco / boost energy to
  solution per miniapp.
* **A3 — micro-architecture sensitivity**: the out-of-order window and
  the 256-byte cache-line choice, the two A64FX idiosyncrasies behind the
  paper's "as-is" analysis.
"""

from __future__ import annotations

import dataclasses

from repro.compile.options import PRESETS
from repro.core.energy import mode_study
from repro.core.experiment import ExperimentConfig
from repro.core.report import Table
from repro.machine import catalog

#: Vector lengths SVE supports on the A64FX model (bits).
VECTOR_LENGTHS = [128, 256, 512]


# ----------------------------------------------------------------------
# A1 — vector-length agnostic execution
# ----------------------------------------------------------------------
def a1_vector_length(
    apps: list[str] | None = None,
    dataset: str = "as-is",
    cache=None,
) -> tuple[Table, dict[str, dict[int, float]]]:
    apps = apps if apps is not None else ["ntchem", "ccs-qcd", "ffvc", "mvmc"]
    t = Table(
        "A1: A64FX speedup vs SVE vector length (VL-128 = 1.0)",
        ["miniapp"] + [f"VL-{vl}" for vl in VECTOR_LENGTHS],
        note="compute-bound kernels scale with VL; memory-bound ones do not "
             "(the SVE multiple-VL companion study's finding)",
    )
    data: dict[str, dict[int, float]] = {}
    for app in apps:
        times: dict[int, float] = {}
        for vl in VECTOR_LENGTHS:
            cfg = ExperimentConfig(app=app, dataset=dataset, n_ranks=4,
                                   n_threads=12, options_preset="kfast")
            row = _run_with_vl(cfg, vl, cache)
            times[vl] = row.elapsed
        data[app] = times
        base = times[VECTOR_LENGTHS[0]]
        t.add(app, *[base / times[vl] for vl in VECTOR_LENGTHS])
    return t, data


def _run_with_vl(cfg: ExperimentConfig, vl: int, cache):
    """Run a config with the compiler's vector length capped at ``vl``.

    The cache key is ``(config, vl)`` — :class:`~repro.core.cache.
    ResultCache` digests the extra element alongside the config.  The
    job and row are the runner's own; ablation runs are not linted.
    """
    from repro.core.runner import event_job, event_row
    from repro.runtime.executor import run_job

    key = (cfg, vl)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    options = cfg.options.with_(simd_width_bits=vl)
    row = event_row(cfg, run_job(event_job(cfg, options)))
    if cache is not None:
        cache[key] = row
    return row


# ----------------------------------------------------------------------
# A2 — power-control modes
# ----------------------------------------------------------------------
def a2_power_modes(
    apps: list[str] | None = None,
    dataset: str = "as-is",
) -> tuple[Table, dict[str, dict[str, object]]]:
    apps = apps if apps is not None else ["ffvc", "nicam-dc", "ntchem", "mvmc"]
    t = Table(
        "A2: A64FX power-control modes (4x12, as-is)",
        ["miniapp", "normal ms", "eco ms", "boost ms",
         "eco W", "normal W", "boost W", "best GF/W"],
        note="eco = 1 FMA pipe + lowered supply; boost = +10% clock. "
             "Memory-bound apps: eco is (nearly) free and saves power.",
    )
    data: dict[str, dict[str, object]] = {}
    for app in apps:
        reports = mode_study(app, dataset)
        data[app] = reports
        best = max(reports.values(), key=lambda r: r.flops_per_joule)
        t.add(
            app,
            reports["normal"].elapsed_s * 1e3,
            reports["eco"].elapsed_s * 1e3,
            reports["boost"].elapsed_s * 1e3,
            reports["eco"].average_watts,
            reports["normal"].average_watts,
            reports["boost"].average_watts,
            f"{best.gflops_per_watt:.2f} ({best.mode})",
        )
    return t, data


# ----------------------------------------------------------------------
# A3 — micro-architecture sensitivity
# ----------------------------------------------------------------------
def _a64fx_variant(**core_changes) -> "catalog.Cluster":
    return catalog.a64fx_variant(lambda cmg: dataclasses.replace(
        cmg, core=dataclasses.replace(cmg.core, **core_changes)))


def _a64fx_line_variant(line_bytes: int) -> "catalog.Cluster":
    return catalog.a64fx_variant(lambda cmg: dataclasses.replace(
        cmg, l2=dataclasses.replace(cmg.l2, line_bytes=line_bytes)))


def _time_on(cluster, app_name: str, dataset: str = "as-is") -> float:
    from repro.miniapps import by_name
    from repro.runtime.executor import run_job
    from repro.runtime.placement import JobPlacement

    app = by_name(app_name)
    placement = JobPlacement(cluster, 4, 12)
    return run_job(app.build_job(cluster, placement, dataset)).elapsed


def a5_collective_algorithms(
    sizes: list[int] | None = None,
    rank_counts: list[int] | None = None,
    n_nodes: int = 64,
) -> tuple[Table, dict[tuple[int, int], float]]:
    """A5: collective-algorithm selection crossovers (allreduce).

    Tables the model's allreduce times across payloads and rank counts on
    a Tofu-D system, against the latency-optimal algorithm forced — the
    crossover every production MPI library exhibits.
    """
    import math

    from repro.runtime import program as rt_ops
    from repro.runtime.collectives import (collective_time,
                                           profile_communicator)

    sizes = sizes if sizes is not None else [8, 1 << 10, 1 << 16,
                                             1 << 20, 1 << 24]
    ranks = rank_counts if rank_counts is not None else [4, 16, 64]
    cluster = catalog.a64fx(n_nodes=n_nodes)
    members = tuple(cluster.address_of(n * cluster.cores_per_node)
                    for n in range(n_nodes))
    profile = profile_communicator(cluster, members)
    t = Table(
        f"A5: Allreduce time [us] vs payload and ranks "
        f"(Tofu-D, {n_nodes} nodes)",
        ["payload B"] + [f"p={p}" for p in ranks]
        + [f"recursive-doubling p={max(ranks)}", "speedup"],
        note="speedup = size-aware algorithm selection vs forcing the "
             "latency-optimal algorithm",
    )
    data: dict[tuple[int, int], float] = {}
    p_max = max(ranks)
    for size in sizes:
        row: list = [size]
        for p in ranks:
            us = collective_time(rt_ops.Allreduce(size_bytes=size), p,
                                 profile) * 1e6
            data[(size, p)] = us
            row.append(us)
        rounds = math.ceil(math.log2(p_max))
        forced = (rounds * (profile.alpha_s
                            + 2.0 * size / profile.bandwidth)
                  + 0.2e-6 * rounds) * 1e6
        row.append(forced)
        row.append(forced / data[(size, p_max)])
        t.add(*row)
    return t, data


def a6_mixed_precision(
    lattice: tuple[int, int, int, int] = (4, 4, 4, 4),
    seed: int = 77,
) -> tuple[Table, dict[str, float]]:
    """A6: mixed-precision (fp32 inner + fp64 refinement) lattice solve.

    Couples the *executable* physics to the *kernel model*:

    1. run the real fp64 BiCGStab and the real mixed solver on a small
       lattice and count their Dirac applications;
    2. time the Dirac kernel in fp64 and fp32 (half the bytes, twice the
       lanes) on the A64FX model;
    3. combine both into the projected end-to-end speedup.
    """
    import numpy as np

    from repro.compile.compiler import Compiler
    from repro.kernels.timing import phase_time
    from repro.miniapps import by_name
    from repro.miniapps.ccs_qcd import physics as qcd

    rng = np.random.default_rng(seed)
    gauge = qcd.random_su3_field(lattice, rng)
    b = qcd.random_spinor(lattice, rng)
    kappa = 0.12
    _, it64, _ = qcd.bicgstab(gauge, b, kappa, tol=1e-10)
    _, outer, inner, _ = qcd.bicgstab_mixed(gauge, b, kappa, tol=1e-10)
    # Dirac applications: 2 per BiCGStab iteration; each outer refinement
    # adds one fp64 residual evaluation.
    dirac64_only = 2 * it64
    dirac64_mixed = outer
    dirac32_mixed = 2 * inner

    app = by_name("ccs-qcd")
    kern64 = app.kernels(app.dataset("as-is"))["qcd-dirac"]
    kern32 = dataclasses.replace(
        kern64, name="qcd-dirac-fp32", element_bytes=4,
        bytes_load=kern64.bytes_load / 2.0,
        bytes_store=kern64.bytes_store / 2.0,
        working_set_bytes=kern64.working_set_bytes / 2.0,
    )
    dom = catalog.a64fx().node.chips[0].domains[0]
    compiler = Compiler(PRESETS["kfast"])
    times = {}
    for name, kern in (("fp64", kern64), ("fp32", kern32)):
        ck = compiler.compile(kern, dom.core)
        pt = phase_time(
            ck, 1e6, dom.core, dom.l1d, dom.l2,
            mem_bandwidth_share=dom.memory.per_stream_bandwidth(12),
            l2_bandwidth_share=dom.l2_bandwidth_share(12),
            mem_latency_s=dom.memory.latency_s,
        )
        times[name] = pt.seconds

    t64_total = dirac64_only * times["fp64"]
    t_mixed = dirac64_mixed * times["fp64"] + dirac32_mixed * times["fp32"]
    speedup = t64_total / t_mixed

    t = Table(
        "A6: mixed-precision lattice solve (fp32 inner + fp64 refinement)",
        ["quantity", "fp64 solver", "mixed solver"],
        note="Dirac counts from the executable solvers; per-application "
             "times from the A64FX kernel model (12 threads/CMG)",
    )
    t.add("fp64 Dirac applications", dirac64_only, dirac64_mixed)
    t.add("fp32 Dirac applications", 0, dirac32_mixed)
    t.add("kernel time per application [us]",
          times["fp64"] * 1e6, times["fp32"] * 1e6)
    t.add("projected Dirac time [us]", t64_total * 1e6, t_mixed * 1e6)
    t.add("projected speedup", 1.0, speedup)
    data = {
        "speedup": speedup,
        "kernel_ratio": times["fp64"] / times["fp32"],
        "outer": float(outer),
        "inner": float(inner),
        "it64": float(it64),
    }
    return t, data


def a3_microarchitecture(
    apps: list[str] | None = None,
) -> tuple[Table, dict[str, dict[str, float]]]:
    apps = apps if apps is not None else ["mvmc", "ccs-qcd", "ffb", "ffvc"]
    variants = {
        "baseline": catalog.a64fx(),
        "ooo-224": _a64fx_variant(ooo_window=224),
        "fp-lat-4": _a64fx_variant(fp_latency_cycles=4.0),
        "line-64B": _a64fx_line_variant(64),
    }
    t = Table(
        "A3: A64FX micro-architecture sensitivity (speedup over baseline)",
        ["miniapp"] + list(variants)[1:],
        note="ooo-224 = Skylake-size OoO window; fp-lat-4 = Skylake FMA "
             "latency; line-64B = small L2 lines (helps gather apps)",
    )
    data: dict[str, dict[str, float]] = {}
    for app in apps:
        base = _time_on(variants["baseline"], app)
        row: dict[str, float] = {}
        for name, cluster in variants.items():
            if name == "baseline":
                continue
            row[name] = base / _time_on(cluster, app)
        data[app] = row
        t.add(app, *row.values())
    return t, data
