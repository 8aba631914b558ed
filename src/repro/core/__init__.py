"""The evaluation framework — the paper's deliverable.

Everything the paper's evaluation section does is a function here:

* :mod:`~repro.core.experiment` — configuration spaces (MPI x OpenMP
  grids, binding/allocation policies, compiler option sets, processors);
* :mod:`~repro.core.runner` — executes sweeps into result tables;
* :mod:`~repro.core.cache` — persistent content-addressed result cache
  (config digest x model fingerprint);
* :mod:`~repro.core.parallel` — sweep dispatch with per-row error
  capture, over the one worker pool in :mod:`~repro.core.scheduler`;
* :mod:`~repro.core.metrics` — speedup / efficiency / best-config helpers;
* :mod:`~repro.core.analysis` — roofline placement and bottleneck
  attribution;
* :mod:`~repro.core.compare` — cross-processor normalization;
* :mod:`~repro.core.report` — ASCII tables and CSV series;
* :mod:`~repro.core.figures` — one entry point per paper table/figure
  (T1-T3, F1-F10; ablations A1-A6 live in sibling modules), used by
  :mod:`repro.artifacts` and the examples.
"""

from repro.core.cache import ResultCache, default_cache_dir, model_fingerprint
from repro.core.experiment import (
    MPI_OMP_CONFIGS,
    STRIDE_SWEEP,
    ExperimentConfig,
    single_node_configs,
)
from repro.core.metrics import best_config, parallel_efficiency, speedup
from repro.core.parallel import SweepError, default_workers
from repro.core.runner import Row, SweepResult, run_config, run_sweep
from repro.core.report import Table

__all__ = [
    "ExperimentConfig",
    "MPI_OMP_CONFIGS",
    "STRIDE_SWEEP",
    "single_node_configs",
    "Row",
    "SweepResult",
    "SweepError",
    "ResultCache",
    "default_cache_dir",
    "default_workers",
    "model_fingerprint",
    "run_config",
    "run_sweep",
    "speedup",
    "parallel_efficiency",
    "best_config",
    "Table",
]
