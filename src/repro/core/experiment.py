"""Experiment configuration spaces.

The sweep axes of the paper, as data:

* **MPI x OpenMP** — all (ranks, threads) factorizations of a 48-core
  A64FX node (1x48 ... 48x1), the F1 axis;
* **thread stride** — binding strides {1, 2, 4, 12}, the F2 axis;
* **process allocation** — {block, cyclic, domain-pack, spread}, F3;
* **compiler option sets** — the :data:`repro.compile.options.PRESETS`
  progression, F4;
* **processors** — the :data:`repro.machine.catalog.PROCESSORS`, F5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compile.options import CompilerOptions, PRESETS
from repro.errors import ConfigurationError
from repro.runtime.affinity import ProcessAllocation, ThreadBinding


def single_node_configs(cores: int) -> list[tuple[int, int]]:
    """All (n_ranks, n_threads) pairs with ``ranks * threads == cores``."""
    if cores < 1:
        raise ConfigurationError("cores must be positive")
    out = []
    for ranks in range(1, cores + 1):
        if cores % ranks == 0:
            out.append((ranks, cores // ranks))
    return out


#: The paper-style MPI x OpenMP grid for a 48-core A64FX node.
MPI_OMP_CONFIGS: list[tuple[int, int]] = [
    (1, 48), (2, 24), (4, 12), (6, 8), (8, 6), (12, 4), (16, 3),
    (24, 2), (48, 1),
]

#: Thread-stride sweep (1 = compact ... 12 = one thread per CMG round).
STRIDE_SWEEP: list[int] = [1, 2, 4, 12]

#: Process-allocation methods (F3).
ALLOCATION_SWEEP: list[str] = list(ProcessAllocation.METHODS)

#: Compiler-option progression (F4), in tuning order.
COMPILER_SWEEP: list[str] = ["as-is", "+simd", "+simd+sched", "tuned"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified run configuration."""

    app: str
    dataset: str = "as-is"
    processor: str = "A64FX"
    n_nodes: int = 1
    n_ranks: int = 4
    n_threads: int = 12
    binding: ThreadBinding = field(default_factory=ThreadBinding)
    allocation: ProcessAllocation = field(default_factory=ProcessAllocation)
    options_preset: str = "kfast"
    data_policy: str = "first-touch"

    def __post_init__(self) -> None:
        # equal configs must encode alike (the cache digests the JSON):
        # 4.0 and True compare equal to 4 and 1 but are not ints
        for name in ("app", "dataset", "processor", "data_policy"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"{name} must be a str, not {value!r}")
        for name in ("n_nodes", "n_ranks", "n_threads"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be an int, not {value!r}")
        for name, kind in (("binding", ThreadBinding),
                           ("allocation", ProcessAllocation)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be a {kind.__name__}, not {value!r}")
        if self.options_preset not in PRESETS:
            raise ConfigurationError(
                f"unknown compiler preset {self.options_preset!r}"
            )
        if self.n_nodes < 1 or self.n_ranks < 1 or self.n_threads < 1:
            raise ConfigurationError("counts must be positive")

    @property
    def options(self) -> CompilerOptions:
        return PRESETS[self.options_preset]

    def label(self) -> str:
        parts = [
            f"{self.app}/{self.dataset}",
            self.processor,
            f"{self.n_ranks}x{self.n_threads}",
        ]
        if self.n_nodes > 1:
            parts.append(f"{self.n_nodes}nodes")
        if self.binding.label() != "compact":
            parts.append(self.binding.label())
        if self.allocation.label() != "block":
            parts.append(self.allocation.label())
        if self.options_preset != "kfast":
            parts.append(self.options_preset)
        return " ".join(parts)


def f1_configs(app: str, dataset: str = "as-is", processor: str = "A64FX",
               grid: list[tuple[int, int]] | None = None,
               ) -> list[ExperimentConfig]:
    """One app's F1 MPI x OpenMP sweep (``grid`` defaults to
    :data:`MPI_OMP_CONFIGS`): what ``repro sweep`` runs and ``repro
    submit`` sends, so service jobs dedup against sweeps."""
    return [ExperimentConfig(app=app, dataset=dataset, processor=processor,
                             n_ranks=n_ranks, n_threads=n_threads)
            for n_ranks, n_threads in (MPI_OMP_CONFIGS if grid is None
                                       else grid)]
