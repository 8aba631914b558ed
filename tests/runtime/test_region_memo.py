"""The executor's per-run memo of region timings.

Within one run, the executor times each distinct ``(rank, Compute)``
pair once and reuses the result; the rows it produces must stay
bit-identical to timing every region afresh.
"""

import hashlib

import pytest

from repro import telemetry
from repro.analysis import analyzer
from repro.compile import PRESETS
from repro.core.cache import config_digest
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.kernels import presets
from repro.machine import catalog
from repro.runtime import Compute, Job, JobPlacement, run_job

KERNELS = {"triad": presets.stream_triad()}


def repeating_program(rank, size):
    """Per rank: 6 regions, 3 distinct ops (one shared with other ranks)."""
    for _ in range(3):
        yield Compute("triad", iters=1000)
    yield Compute("triad", iters=2000 * (rank + 1))
    for _ in range(2):
        yield Compute("triad", iters=1000, serial=True)


def run_counting(monkeypatch):
    counts = {}

    def count(name, n=1, **labels):
        counts[name] = counts.get(name, 0) + n

    monkeypatch.setattr(telemetry, "count", count)
    cluster = catalog.a64fx()
    run_job(Job(cluster=cluster, placement=JobPlacement(cluster, 2, 4),
                kernels=KERNELS, program=repeating_program,
                options=PRESETS["kfast"]))
    return counts


def test_run_leaves_no_cyclic_garbage():
    """Drivers, their replayed programs and traces die by reference
    count when the result is dropped, so back-to-back runs do not pile
    garbage up for the cyclic collector."""
    import gc

    from repro.runtime.program import Allreduce

    def program(rank, size):
        yield from repeating_program(rank, size)
        yield Allreduce(size_bytes=8)

    cluster = catalog.a64fx()
    job = Job(cluster=cluster, placement=JobPlacement(cluster, 4, 2),
              kernels=KERNELS, program=program, options=PRESETS["kfast"])
    run_job(job)
    gc.collect()
    gc.disable()
    try:
        run_job(job)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestWorkCounters:
    def test_regions_and_hits(self, monkeypatch):
        counts = run_counting(monkeypatch)
        regions = 2 * 6
        distinct = 2 * 3                 # the key is (rank, op)
        assert counts["executor.jobs"] == 1
        assert counts["executor.regions"] == regions
        assert counts["executor.region_hits"] == regions - distinct

    def test_memo_dies_with_the_run(self, monkeypatch):
        """A second run starts cold: the same hits, not all hits."""
        first = run_counting(monkeypatch)
        second = run_counting(monkeypatch)
        assert second == first


#: sha256 of the heavy-app rows below, captured on the commit before the
#: memo and per-domain timing were introduced (one ``phase_time`` call
#: per thread, every region timed afresh).
HEAVY_ROWS_SHA256 = \
    "26cb84e5bcd4c1e309c925e08d8db13358f2906521cc7ee5d68972bb668e8fce"


@pytest.fixture
def lint_path(request):
    """Which path hands the run its traces: the lint gate's fresh
    analysis (``lint-on``), the run's own replay with the gate off
    (``lint-off``), or the run's own replay after a verdict-memo hit
    (``memo-hit``, rows from the second of two passes)."""
    enabled = analyzer.preflight_enabled()
    analyzer.clear_memos()
    analyzer.set_preflight(request.param != "lint-off")
    try:
        yield request.param
    finally:
        analyzer.set_preflight(enabled)
        analyzer.clear_memos()


@pytest.mark.parametrize("lint_path", ["lint-on", "lint-off", "memo-hit"],
                         indirect=True)
def test_heavy_app_rows_bit_identical(lint_path):
    """ccs-qcd, ffb and ffvc (which the benchmark's event workload leaves
    out) at 4x12 and 1x48 under first-touch, plus ffvc 1x48 under
    serial-init, whose threads read remote domains."""
    configs = [ExperimentConfig(app=app, n_ranks=ranks, n_threads=threads)
               for app in ("ccs-qcd", "ffb", "ffvc")
               for ranks, threads in ((4, 12), (1, 48))]
    configs.append(ExperimentConfig(app="ffvc", n_ranks=1, n_threads=48,
                                    data_policy="serial-init"))
    if lint_path == "memo-hit":
        for config in configs:
            run_config(config)
    lines = []
    for config in configs:
        row = run_config(config)
        lines.append(" ".join((
            config_digest(config), repr(row.elapsed), repr(row.gflops),
            repr(row.dram_gbytes_per_s), repr(row.comm_fraction))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == HEAVY_ROWS_SHA256
