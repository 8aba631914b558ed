"""Cross-processor comparison (the F5 experiment).

Runs each miniapp node-vs-node on every cataloged processor at that
processor's best single-node MPI x OpenMP configuration (a small inner
sweep — the paper likewise reports tuned-per-machine numbers), and
normalizes to A64FX = 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiment import ExperimentConfig, single_node_configs
from repro.core.runner import Row, run_sweep
from repro.machine import catalog


@dataclass(frozen=True)
class Comparison:
    """Per-app best rows across processors."""

    app: str
    dataset: str
    best: dict[str, Row]          # processor -> fastest row

    def relative_to(self, reference: str = "A64FX") -> dict[str, float]:
        """elapsed(reference) / elapsed(processor): >1 = faster than ref."""
        ref = self.best[reference]
        return {
            proc: ref.elapsed / row.elapsed
            for proc, row in self.best.items()
        }


def candidate_configs(processor: str) -> list[tuple[int, int]]:
    """A small representative (ranks, threads) grid for one node."""
    cores = catalog.by_name(processor).cores_per_node
    all_cfgs = single_node_configs(cores)
    # thin the grid: extremes plus near-square hybrids
    picks = {all_cfgs[0], all_cfgs[-1]}
    n_domains = catalog.by_name(processor).domains_per_node
    for ranks, threads in all_cfgs:
        if ranks in (n_domains, 2 * n_domains):
            picks.add((ranks, threads))
    return sorted(picks)


def compare_processors(
    app: str,
    dataset: str = "as-is",
    processors: list[str] | None = None,
    options_preset: str = "kfast",
    cache=None,
    workers: int = 1,
) -> Comparison:
    """Best-of-node comparison of one miniapp across processors."""
    procs = processors if processors is not None else list(catalog.PROCESSORS)
    best: dict[str, Row] = {}
    for proc in procs:
        configs = [
            ExperimentConfig(
                app=app, dataset=dataset, processor=proc,
                n_ranks=nr, n_threads=nt, options_preset=options_preset,
            )
            for nr, nt in candidate_configs(proc)
        ]
        sweep = run_sweep(f"{app}-{proc}", configs, cache, workers=workers)
        best[proc] = sweep.fastest()
    return Comparison(app=app, dataset=dataset, best=best)
