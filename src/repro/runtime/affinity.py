"""Thread-binding policies and MPI process-allocation methods.

These are the paper's two placement axes:

* **thread binding** — within the set of cores a node hosts, threads of a
  rank are laid out with a *stride*: stride 1 packs consecutive threads on
  consecutive cores (filling one CMG before the next); stride = cores/CMG
  scatters consecutive threads across CMGs.  The abstract's finding is that
  *shorter strides perform better for most miniapps*.
* **process allocation** — how ranks are distributed over nodes (and over
  CMGs within a node): block, cyclic, domain-packed, spread.  The
  abstract's finding is that this axis *has little impact*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, PlacementError
from repro.names import ALLOCATIONS


def strided_order(n: int, stride: int) -> list[int]:
    """Collision-free enumeration of ``0..n-1`` with the given stride.

    Visits every ``stride``-th slot, advancing to the next unused slot on
    wrap-around, so the result is a permutation for *any* positive stride::

        strided_order(8, 1) == [0, 1, 2, 3, 4, 5, 6, 7]
        strided_order(8, 4) == [0, 4, 1, 5, 2, 6, 3, 7]
    """
    if n < 1:
        raise ConfigurationError("n must be positive")
    if stride < 1:
        raise ConfigurationError("stride must be positive")
    order: list[int] = []
    used = [False] * n
    idx = 0
    for _ in range(n):
        while used[idx]:
            idx = (idx + 1) % n
        order.append(idx)
        used[idx] = True
        idx = (idx + stride) % n
    return order


@dataclass(frozen=True)
class ThreadBinding:
    """Thread layout over a node's cores.

    ``policy`` is one of:

    * ``"compact"`` — stride 1 (consecutive cores, fills a CMG first);
    * ``"scatter"`` — stride = cores per NUMA domain (consecutive threads on
      different CMGs);
    * ``"stride"`` — explicit ``stride`` value (the paper's sweep axis).
    """

    policy: str = "compact"
    stride: int = 1

    def __post_init__(self) -> None:
        if self.policy not in ("compact", "scatter", "stride"):
            raise ConfigurationError(f"unknown binding policy {self.policy!r}")
        if not isinstance(self.stride, int) or isinstance(self.stride, bool):
            raise ConfigurationError(
                f"stride must be an int, not {self.stride!r}")
        if self.stride < 1:
            raise ConfigurationError("stride must be positive")
        if self.policy == "compact" and self.stride != 1:
            raise ConfigurationError("compact binding implies stride 1")

    @classmethod
    def from_stride(cls, stride: int) -> "ThreadBinding":
        """The binding of a thread-stride sweep point: stride 1 is
        ``compact``, any other an explicit ``stride``."""
        return cls() if stride == 1 else cls("stride", stride=stride)

    def effective_stride(self, cores_per_domain: int) -> int:
        if self.policy == "compact":
            return 1
        if self.policy == "scatter":
            return cores_per_domain
        return self.stride

    def label(self) -> str:
        if self.policy == "stride":
            return f"stride-{self.stride}"
        return self.policy


@dataclass(frozen=True)
class ProcessAllocation:
    """Rank-to-node (and within-node) allocation method.

    * ``"block"`` — fill node 0 with ranks, then node 1, ... (the `mpirun`
      default "by slot").
    * ``"cyclic"`` — deal ranks round-robin over nodes ("by node").
    * ``"domain-pack"`` — like block, but each rank's thread window is
      aligned to NUMA-domain boundaries (one-rank-per-CMG style maps).
    * ``"spread"`` — balance ranks over nodes as evenly as possible,
      keeping consecutive ranks together in blocks.
    """

    method: str = "block"

    METHODS = ALLOCATIONS

    def __post_init__(self) -> None:
        if self.method not in self.METHODS:
            raise ConfigurationError(f"unknown allocation method {self.method!r}")

    # ------------------------------------------------------------------
    def ranks_per_node(self, n_ranks: int, n_nodes: int,
                       capacity_per_node: int) -> list[list[int]]:
        """Distribute global rank ids over nodes.

        ``capacity_per_node`` is the number of ranks one node can host
        (cores // threads-per-rank).
        """
        if n_ranks < 1:
            raise ConfigurationError("need at least one rank")
        if capacity_per_node < 1:
            raise PlacementError("node cannot host even one rank "
                                 "(threads per rank exceeds cores per node)")
        if n_ranks > n_nodes * capacity_per_node:
            raise PlacementError(
                f"{n_ranks} ranks exceed cluster capacity "
                f"{n_nodes} nodes x {capacity_per_node} ranks"
            )
        buckets: list[list[int]] = [[] for _ in range(n_nodes)]
        if self.method in ("block", "domain-pack"):
            node = 0
            for r in range(n_ranks):
                while len(buckets[node]) >= capacity_per_node:
                    node += 1
                buckets[node].append(r)
        elif self.method == "cyclic":
            node = 0
            for r in range(n_ranks):
                # find next node with room, starting at the cursor
                probed = 0
                while len(buckets[node]) >= capacity_per_node:
                    node = (node + 1) % n_nodes
                    probed += 1
                    if probed > n_nodes:
                        raise PlacementError("no node has room")  # pragma: no cover
                buckets[node].append(r)
                node = (node + 1) % n_nodes
        else:  # spread
            # use as many nodes as possible, keeping consecutive ranks
            # together in near-equal blocks
            used_nodes = min(n_nodes, n_ranks)
            per = -(-n_ranks // used_nodes)
            # per may exceed capacity when n_ranks ~ capacity*nodes
            per = min(per, capacity_per_node)
            node, count = 0, 0
            for r in range(n_ranks):
                if count >= per and node < n_nodes - 1:
                    node, count = node + 1, 0
                buckets[node].append(r)
                count += 1
        return buckets

    def label(self) -> str:
        return self.method
