"""Bit-identity pins of the analytic scorer over wide design grids.

The wide grid crosses every miniapp and catalog processor with node
count, data policy, binding, allocation and half of the MPI x OpenMP
splits, so it reaches every placement-table path of the scorer
(multi-node, serial-init homes, strided and scattered threads, cyclic
ranks) and its placement errors.  Its row digest and the count of each
exception type are literals: any change to the scorer's float
arithmetic, or to which configs fail, shows up here.

The analytic-dse grid (the benchmark's design grid) must give the same
rows however it is batched.
"""

import hashlib
import itertools
from collections import Counter

from repro.analytic import clear_memos, score_config, score_configs
from repro.core.cache import config_digest
from repro.core.experiment import (
    ALLOCATION_SWEEP,
    COMPILER_SWEEP,
    MPI_OMP_CONFIGS,
    STRIDE_SWEEP,
    ExperimentConfig,
)
from repro.machine.catalog import PROCESSORS
from repro.miniapps import SUITE
from repro.runtime.affinity import ProcessAllocation, ThreadBinding

#: sha256 of the wide grid's rows (see :func:`_digest`).
WIDE_GRID_DIGEST = (
    "f5764ea15dc883f598957ac835d24e2268fee54eb2e444056b9a56ff6f76797a")
#: Configs of the wide grid that fail, by exception type.
WIDE_GRID_ERRORS = {"PlacementError": 1536}

BINDINGS = (ThreadBinding(), ThreadBinding("stride", 2),
            ThreadBinding("scatter"))


def _wide_grid():
    return [
        ExperimentConfig(app=app, processor=proc, n_nodes=nodes,
                         n_ranks=ranks, n_threads=threads, binding=binding,
                         allocation=ProcessAllocation(alloc),
                         data_policy=policy)
        for app, proc, nodes, policy, binding, alloc, (ranks, threads)
        in itertools.product(sorted(SUITE), sorted(PROCESSORS), (1, 2),
                             ("first-touch", "serial-init"), BINDINGS,
                             ("block", "cyclic"), MPI_OMP_CONFIGS[::2])
    ]


def _dse_grid():
    """The analytic-dse design grid: 8 apps x 2 data sets x 4 strides x
    4 allocations x 2 presets x the F1 splits (6x8 left out under
    domain-pack)."""
    out = []
    for app, dataset, stride, alloc, preset in itertools.product(
            sorted(SUITE), ("as-is", "large"), STRIDE_SWEEP,
            ALLOCATION_SWEEP, (COMPILER_SWEEP[0], COMPILER_SWEEP[-1])):
        binding = ThreadBinding() if stride == 1 \
            else ThreadBinding("stride", stride)
        out.extend(
            ExperimentConfig(app=app, dataset=dataset, n_ranks=ranks,
                             n_threads=threads, binding=binding,
                             allocation=ProcessAllocation(alloc),
                             options_preset=preset)
            for ranks, threads in MPI_OMP_CONFIGS
            if not (alloc == "domain-pack" and (ranks, threads) == (6, 8)))
    return out


def _batched(configs, size):
    out = []
    for i in range(0, len(configs), size):
        out.extend(score_configs(configs[i:i + size]))
    return out


def _digest(configs, results):
    """sha256 over one line per config: its digest and the ``repr`` of
    each row float, or the exception type of a failed config."""
    lines = []
    for config, res in zip(configs, results):
        if isinstance(res, Exception):
            tail = type(res).__name__
        else:
            tail = " ".join(repr(x) for x in (
                res.elapsed, res.gflops, res.dram_gbytes_per_s,
                res.comm_fraction))
        lines.append(f"{config_digest(config)} {tail}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_wide_grid_rows_are_pinned():
    configs = _wide_grid()
    assert len(configs) == 4800
    clear_memos()
    results = _batched(configs, 9)
    errors = Counter(type(r).__name__ for r in results
                     if isinstance(r, Exception))
    assert dict(errors) == WIDE_GRID_ERRORS
    assert _digest(configs, results) == WIDE_GRID_DIGEST


def test_dse_grid_rows_do_not_depend_on_batching():
    configs = _dse_grid()
    assert len(configs) == 4480
    clear_memos()
    one_batch = score_configs(configs)
    assert not any(isinstance(r, Exception) for r in one_batch)
    clear_memos()
    assert _batched(configs, 9) == one_batch
    assert [score_config(c) for c in configs] == one_batch
