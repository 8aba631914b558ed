"""Concrete processor parameterizations evaluated in the paper.

Each factory returns a :class:`~repro.machine.topology.Cluster` of ``n_nodes``
identical nodes.  Parameter values come from vendor documentation and the
companion evaluation papers (Kodama et al., Odajima et al.):

* **A64FX** — 48 compute cores in 4 CMGs of 12; 512-bit SVE, 2 FMA pipes
  (peak 70.4 GFLOP/s/core at 2.2 GHz, 3.38 TFLOP/s/chip); 64 KiB L1D/core;
  8 MiB shared L2 per CMG; 8 GiB HBM2 per CMG at 256 GB/s (1024 GB/s/chip,
  STREAM ~0.82 of peak); long FP latency (9 cycles) and a small effective
  out-of-order window — the documented cause of its poor performance on
  unvectorized, low-ILP "as-is" code; weak scalar side; Tofu-D network.
* **Xeon Skylake-SP (Gold 6148 x2)** — 2 x 20 cores at 2.4 GHz, AVX-512
  (2 FMA pipes), big OoO window (224), strong scalar engine, 6-channel
  DDR4-2666 per socket (128 GB/s peak/socket), InfiniBand EDR.
* **ThunderX2 (CN9975 x2)** — 2 x 28 Arm v8.1 cores at 2.0 GHz, 128-bit
  NEON (2 FMA pipes), 8-channel DDR4 per socket (171 GB/s peak/socket).
* **SPARC64 VIIIfx (K computer)** — 8 cores at 2.0 GHz, 128-bit HPC-ACE
  (2 FMA), 64 GB/s memory; included for historical context.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.machine.cache import CacheSpec
from repro.machine.core import CoreSpec
from repro.machine.interconnect import infiniband_edr, tofu_d
from repro.machine.memory import MemorySpec
from repro.machine.numa import Chip, Node, NumaDomain
from repro.machine.topology import Cluster
from repro.units import GB_S, GHZ, GIB, KIB, MIB, NS, US


def a64fx(n_nodes: int = 1, boost: bool = False, eco: bool = False) -> Cluster:
    """Fujitsu A64FX node(s) (FX1000-class, 2.2 GHz).

    The paper runs in normal mode.  ``boost`` raises the clock by ~10%
    without changing memory bandwidth; ``eco`` disables one of the two FLA
    (FMA) pipelines — the power-control modes studied in the companion
    Fugaku papers (see :mod:`repro.machine.power`).
    """
    if boost and eco:
        from repro.errors import ConfigurationError

        raise ConfigurationError("boost and eco modes are mutually exclusive")
    freq = 2.2 * GHZ * (1.1 if boost else 1.0)
    core = CoreSpec(
        name="a64fx-core",
        freq_hz=freq,
        simd_bits=512,
        fma_pipes=1 if eco else 2,
        fp_latency_cycles=9.0,
        ooo_window=64,          # effective: small reservation stations
        issue_width=4,
        scalar_ipc=1.2,         # weak scalar/OoO side
        load_units=2,
        store_units=1,
        l1d_bytes_per_cycle=128.0,
    )
    l1d = CacheSpec(level=1, capacity_bytes=64 * KIB, line_bytes=256,
                    latency_cycles=5, bytes_per_cycle=128.0, shared=False)
    l2 = CacheSpec(level=2, capacity_bytes=8 * MIB, line_bytes=256,
                   latency_cycles=40, bytes_per_cycle=512.0, shared=True)
    hbm2 = MemorySpec(
        kind="HBM2",
        capacity_bytes=8 * GIB,
        peak_bandwidth=256 * GB_S,
        sustained_fraction=0.82,
        single_stream_bandwidth=50 * GB_S,
        latency_s=120 * NS,
    )
    cmg = NumaDomain(name="cmg", core=core, n_cores=12, l1d=l1d, l2=l2, memory=hbm2)
    chip = Chip(
        name="a64fx",
        domains=(cmg,) * 4,
        inter_domain_bandwidth=100 * GB_S,  # on-chip ring
        inter_domain_latency_s=60 * NS,
        remote_access_fraction=0.45,
    )
    node = Node(name="a64fx-node", chips=(chip,), nic_injection_bandwidth=20 * GB_S)
    return Cluster(
        name="A64FX",
        node=node,
        n_nodes=n_nodes,
        network=tofu_d(),
        shm_bandwidth=12 * GB_S,
        shm_latency_s=0.25 * US,
    )


def a64fx_variant(cmg: Callable[[NumaDomain], NumaDomain], *,
                  n_nodes: int = 1, node: dict[str, Any] | None = None,
                  **cluster: Any) -> Cluster:
    """The A64FX with ``cmg`` applied to its CMG: the chip of four such
    CMGs, its node (with the ``node`` field changes) and the cluster
    (with the ``cluster`` field changes) are rebuilt around it."""
    base = a64fx(n_nodes=n_nodes)
    chip = base.node.chips[0]
    chip = dataclasses.replace(chip, domains=(cmg(chip.domains[0]),) * 4)
    return dataclasses.replace(
        base, node=dataclasses.replace(base.node, chips=(chip,),
                                       **(node or {})),
        **cluster)


def a64fx_fx700(n_nodes: int = 1) -> Cluster:
    """Fujitsu PRIMEHPC FX700: the commercial A64FX at 1.8 GHz with
    InfiniBand EDR instead of Tofu-D (the configuration many early A64FX
    evaluations, including parts of this paper's, actually ran on)."""
    return a64fx_variant(
        lambda cmg: dataclasses.replace(cmg, core=dataclasses.replace(
            cmg.core, name="a64fx-fx700-core", freq_hz=1.8 * GHZ)),
        n_nodes=n_nodes, node={"nic_injection_bandwidth": 12.5 * GB_S},
        name="A64FX-FX700", network=infiniband_edr())


def xeon_skylake(n_nodes: int = 1) -> Cluster:
    """Dual-socket Intel Xeon Gold 6148 (Skylake-SP) node(s)."""
    core = CoreSpec(
        name="skylake-core",
        freq_hz=2.4 * GHZ,
        simd_bits=512,
        fma_pipes=2,
        fp_latency_cycles=4.0,
        ooo_window=224,
        issue_width=4,
        scalar_ipc=2.5,
        load_units=2,
        store_units=1,
        l1d_bytes_per_cycle=128.0,
    )
    l1d = CacheSpec(level=1, capacity_bytes=32 * KIB, line_bytes=64,
                    latency_cycles=4, bytes_per_cycle=128.0, shared=False)
    # Private 1 MiB L2; the shared L3's traffic filtering is folded into the
    # relatively high single-stream DRAM figure below.
    l2 = CacheSpec(level=2, capacity_bytes=1 * MIB, line_bytes=64,
                   latency_cycles=14, bytes_per_cycle=64.0, shared=False)
    ddr4 = MemorySpec(
        kind="DDR4-2666x6",
        capacity_bytes=96 * GIB,
        peak_bandwidth=128 * GB_S,
        sustained_fraction=0.80,
        single_stream_bandwidth=14 * GB_S,
        latency_s=90 * NS,
    )
    socket_dom = NumaDomain(name="skx-socket", core=core, n_cores=20,
                            l1d=l1d, l2=l2, memory=ddr4)
    chip = Chip(name="skylake-8168", domains=(socket_dom,),
                inter_domain_bandwidth=0.0, inter_domain_latency_s=0.0,
                remote_access_fraction=0.6)
    node = Node(
        name="skylake-node",
        chips=(chip, chip),
        inter_chip_bandwidth=41.6 * GB_S,   # 2x UPI
        inter_chip_latency_s=130 * NS,
        nic_injection_bandwidth=12.5 * GB_S,
    )
    return Cluster(
        name="Xeon-Skylake",
        node=node,
        n_nodes=n_nodes,
        network=infiniband_edr(),
        shm_bandwidth=8 * GB_S,
        shm_latency_s=0.3 * US,
    )


def thunderx2(n_nodes: int = 1) -> Cluster:
    """Dual-socket Marvell ThunderX2 CN9975 node(s)."""
    core = CoreSpec(
        name="thunderx2-core",
        freq_hz=2.0 * GHZ,
        simd_bits=128,
        fma_pipes=2,
        fp_latency_cycles=6.0,
        ooo_window=180,
        issue_width=4,
        scalar_ipc=2.0,
        load_units=2,
        store_units=1,
        l1d_bytes_per_cycle=64.0,
    )
    l1d = CacheSpec(level=1, capacity_bytes=32 * KIB, line_bytes=64,
                    latency_cycles=4, bytes_per_cycle=64.0, shared=False)
    l2 = CacheSpec(level=2, capacity_bytes=256 * KIB, line_bytes=64,
                   latency_cycles=12, bytes_per_cycle=48.0, shared=False)
    ddr4 = MemorySpec(
        kind="DDR4-2666x8",
        capacity_bytes=128 * GIB,
        peak_bandwidth=171 * GB_S,
        sustained_fraction=0.75,
        single_stream_bandwidth=12 * GB_S,
        latency_s=100 * NS,
    )
    socket_dom = NumaDomain(name="tx2-socket", core=core, n_cores=28,
                            l1d=l1d, l2=l2, memory=ddr4)
    chip = Chip(name="thunderx2-cn9975", domains=(socket_dom,),
                inter_domain_bandwidth=0.0, inter_domain_latency_s=0.0,
                remote_access_fraction=0.55)
    node = Node(
        name="thunderx2-node",
        chips=(chip, chip),
        inter_chip_bandwidth=38 * GB_S,     # CCPI2
        inter_chip_latency_s=150 * NS,
        nic_injection_bandwidth=12.5 * GB_S,
    )
    return Cluster(
        name="ThunderX2",
        node=node,
        n_nodes=n_nodes,
        network=infiniband_edr(),
        shm_bandwidth=7 * GB_S,
        shm_latency_s=0.35 * US,
    )


def sparc64_viiifx(n_nodes: int = 1) -> Cluster:
    """Fujitsu SPARC64 VIIIfx (K computer) node(s), for historical context."""
    core = CoreSpec(
        name="sparc64viiifx-core",
        freq_hz=2.0 * GHZ,
        simd_bits=128,
        fma_pipes=2,
        fp_latency_cycles=6.0,
        ooo_window=48,
        issue_width=4,
        scalar_ipc=1.5,
        load_units=2,
        store_units=1,
        l1d_bytes_per_cycle=64.0,
    )
    l1d = CacheSpec(level=1, capacity_bytes=32 * KIB, line_bytes=128,
                    latency_cycles=3, bytes_per_cycle=64.0, shared=False)
    l2 = CacheSpec(level=2, capacity_bytes=6 * MIB, line_bytes=128,
                   latency_cycles=30, bytes_per_cycle=256.0, shared=True)
    mem = MemorySpec(
        kind="DDR3-embedded",
        capacity_bytes=16 * GIB,
        peak_bandwidth=64 * GB_S,
        sustained_fraction=0.72,
        single_stream_bandwidth=10 * GB_S,
        latency_s=110 * NS,
    )
    dom = NumaDomain(name="k-chip", core=core, n_cores=8, l1d=l1d, l2=l2, memory=mem)
    chip = Chip(name="sparc64viiifx", domains=(dom,),
                inter_domain_bandwidth=0.0, inter_domain_latency_s=0.0)
    node = Node(name="k-node", chips=(chip,), nic_injection_bandwidth=5 * GB_S)
    return Cluster(
        name="SPARC64-VIIIfx",
        node=node,
        n_nodes=n_nodes,
        network=tofu_d(),
        shm_bandwidth=5 * GB_S,
        shm_latency_s=0.4 * US,
    )


#: Registry used by the cross-processor comparison experiment (F5/T1).
PROCESSORS = {
    "A64FX": a64fx,
    "A64FX-FX700": a64fx_fx700,
    "Xeon-Skylake": xeon_skylake,
    "ThunderX2": thunderx2,
    "SPARC64-VIIIfx": sparc64_viiifx,
}


def by_name(name: str, n_nodes: int = 1) -> Cluster:
    """Look a processor up by its registry name."""
    try:
        factory = PROCESSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown processor {name!r}; available: {sorted(PROCESSORS)}"
        ) from None
    return factory(n_nodes=n_nodes)
