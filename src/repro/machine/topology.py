"""Cluster topology and global core addressing.

A :class:`Cluster` is ``n_nodes`` identical :class:`~repro.machine.numa.Node`
objects joined by an :class:`~repro.machine.interconnect.InterconnectSpec`.
The placement machinery (:mod:`repro.runtime.placement`) speaks in
:class:`CoreAddress` — (node, chip, domain, core) — and this module provides
the conversions between flat global core ids and structured addresses, plus
the intra-node transfer-cost parameters used by the simulated MPI layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError
from repro.machine.interconnect import InterconnectSpec
from repro.machine.numa import Node, NumaDomain
from repro.machine.storage import StorageSpec, fefs
from repro.units import GB_S, US


@dataclass(frozen=True, order=True)
class CoreAddress:
    """Structured location of one hardware core in the cluster."""

    node: int
    chip: int
    domain: int   # chip-local domain index
    core: int     # domain-local core index

    def same_domain(self, other: "CoreAddress") -> bool:
        return (
            self.node == other.node
            and self.chip == other.chip
            and self.domain == other.domain
        )

    def same_chip(self, other: "CoreAddress") -> bool:
        return self.node == other.node and self.chip == other.chip

    def same_node(self, other: "CoreAddress") -> bool:
        return self.node == other.node


@dataclass(frozen=True)
class Cluster:
    """Homogeneous cluster: ``n_nodes`` copies of ``node`` on ``network``.

    ``shm_bandwidth`` / ``shm_latency_s`` parameterize intra-node MPI
    transfers (shared-memory copies through the memory system); inter-domain
    transfers additionally honour the chip's ring parameters.
    """

    name: str
    node: Node
    n_nodes: int
    network: InterconnectSpec
    shm_bandwidth: float = 8.0 * GB_S
    shm_latency_s: float = 0.3 * US
    storage: StorageSpec = field(default_factory=fefs)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"{self.name}: need at least one node")
        if self.shm_bandwidth <= 0 or self.shm_latency_s < 0:
            raise ConfigurationError(f"{self.name}: bad shared-memory parameters")

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        return self.node.n_cores

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.node.n_cores

    @property
    def domains_per_node(self) -> int:
        return self.node.n_domains

    @property
    def peak_flops_fp64(self) -> float:
        return self.n_nodes * self.node.peak_flops_fp64

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    @cached_property
    def _node_addresses(self) -> tuple[tuple[int, int, int], ...]:
        """(chip, domain, core) of every node-local core, in flat order."""
        return tuple(
            (chip_idx, dom_idx, core)
            for chip_idx, chip in enumerate(self.node.chips)
            for dom_idx, dom in enumerate(chip.domains)
            for core in range(dom.n_cores)
        )

    def address_of(self, global_core: int) -> CoreAddress:
        """Convert a flat global core id to a structured address."""
        table = self._node_addresses
        if not 0 <= global_core < self.n_nodes * len(table):
            raise ConfigurationError(
                f"core {global_core} out of range 0..{self.total_cores - 1}"
            )
        node_idx, local = divmod(global_core, len(table))
        return CoreAddress(node_idx, *table[local])

    def global_core(self, addr: CoreAddress) -> int:
        """Convert a structured address back to a flat global core id."""
        if not 0 <= addr.node < self.n_nodes:
            raise ConfigurationError(f"node {addr.node} out of range")
        if not 0 <= addr.chip < len(self.node.chips):
            raise ConfigurationError(f"chip {addr.chip} out of range")
        chip = self.node.chips[addr.chip]
        if not 0 <= addr.domain < len(chip.domains):
            raise ConfigurationError(f"domain {addr.domain} out of range")
        dom = chip.domains[addr.domain]
        if not 0 <= addr.core < dom.n_cores:
            raise ConfigurationError(f"core {addr.core} out of range")
        local = (
            sum(c.n_cores for c in self.node.chips[: addr.chip])
            + sum(d.n_cores for d in chip.domains[: addr.domain])
            + addr.core
        )
        return addr.node * self.node.n_cores + local

    def domain_spec(self, addr: CoreAddress) -> NumaDomain:
        """The NUMA domain object a core address belongs to."""
        return self.node.chips[addr.chip].domains[addr.domain]

    def node_global_domain(self, addr: CoreAddress) -> int:
        """Node-global domain index (0 .. domains_per_node-1) for an address."""
        chip = self.node.chips[addr.chip]
        if not 0 <= addr.domain < len(chip.domains):
            raise ConfigurationError(f"domain {addr.domain} out of range")
        return sum(len(c.domains) for c in self.node.chips[: addr.chip]) + addr.domain

    # ------------------------------------------------------------------
    # transfer costs (used by the simulated MPI point-to-point layer)
    # ------------------------------------------------------------------
    def transfer_time(self, src: CoreAddress, dst: CoreAddress, size_bytes: float) -> float:
        """Time for one message between two cores, seconds.

        Three regimes: same node via shared memory (with a ring surcharge
        when crossing domains/chips), different node via the interconnect.
        """
        if size_bytes < 0:
            raise ConfigurationError("message size must be non-negative")
        if src.node == dst.node:
            t = self.shm_latency_s + size_bytes / self.shm_bandwidth
            if not src.same_chip(dst):
                t += self.node.inter_chip_latency_s
                if self.node.inter_chip_bandwidth > 0:
                    t += size_bytes / self.node.inter_chip_bandwidth
            elif not src.same_domain(dst):
                chip = self.node.chips[src.chip]
                t += chip.inter_domain_latency_s
                if chip.inter_domain_bandwidth > 0:
                    t += size_bytes / chip.inter_domain_bandwidth
            return t
        hops = self.network.hops(src.node, dst.node, self.n_nodes)
        return self.network.message_time(size_bytes, hops)

    def describe(self) -> str:
        from repro.units import fmt_bw, fmt_rate

        return (
            f"{self.name}: {self.n_nodes} node(s) x {self.node.n_cores} cores, "
            f"peak {fmt_rate(self.peak_flops_fp64)}, "
            f"node memory BW {fmt_bw(self.node.peak_memory_bandwidth)}, "
            f"network {self.network.name}"
        )
