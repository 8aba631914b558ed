"""The paper's artifacts against their claims and the committed REPORT.md.

Each case builds one :data:`~repro.artifacts.ARTIFACTS` entry, asserts
the paper's qualitative findings about it (:data:`CLAIMS`, keyed by id)
and finds its rendered section verbatim in ``REPORT.md``.  The last case
asserts ``REPORT.md`` equals the whole generated report, so a change to
any modelled number fails it until ``repro report -o REPORT.md``
regenerates the committed copy.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.artifacts import ARTIFACTS, report_text
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import spread
from repro.core.runner import run_config

REPORT = Path(__file__).resolve().parents[1] / "REPORT.md"
BY_ID = {a.id: a for a in ARTIFACTS}

#: One cache for every build in this module, so the sweep points the
#: artifacts share (the 4x12 baselines of F1, F2, F4 and A1) run once.
_CACHE: dict = {}


@functools.cache
def built(artifact_id):
    """``(table, data)`` of one artifact, built once per test run."""
    return BY_ID[artifact_id].build(_CACHE)


def floats(table, column):
    return [float(v.replace(",", "")) for v in table.column(column)]


# ----------------------------------------------------------------------
# Claims: one function per artifact id, given the built (table, data)
# ----------------------------------------------------------------------
def t1(table, _):
    # the A64FX row leads the comparison with the bandwidth advantage
    assert table.column("processor")[0] == "A64FX"
    assert "1024" in table.column("mem BW")[0]


def t2(table, _):
    assert len(table.rows) == 8
    # the suite spans the performance spectrum by design
    assert {"memory", "compute", "integer"} <= set(table.column("character"))


def t3(table, _):
    # the abstract: the best configuration differs across miniapps
    assert len(set(table.column("best config"))) >= 2


def f1(table, sweeps):
    assert len(table.rows) == 8
    # flat MPI (48x1) never wins for the communication-sensitive QCD
    # (comm overlap narrows but does not erase the gap)
    qcd = sweeps["ccs-qcd"]
    assert qcd.by(n_ranks=48)[0].elapsed > 1.05 * qcd.fastest().elapsed
    winners = {(s.fastest().config.n_ranks, s.fastest().config.n_threads)
               for s in sweeps.values()}
    assert len(winners) >= 2


def f2(table, sweeps):
    # "shorter OpenMP thread strides perform better in most mini
    # applications": a clear majority of the eight
    assert table.column("stride-1 wins?").count("yes") >= 6
    # and for the memory-bound apps the stride penalty is substantial
    ffvc = sweeps["ffvc"]
    assert ffvc.rows[-1].elapsed > 1.2 * ffvc.rows[0].elapsed


def f3(table, sweeps):
    # "MPI process allocation methods have not had a large impact": the
    # spread stays modest for most apps; a locality-breaking cyclic map
    # costs the largest-halo app (ccs-qcd) up to ~40% at this scale
    spreads = sorted(spread(s.rows) for s in sweeps.values())
    assert spreads[len(spreads) // 2] < 0.2
    for app, sweep in sweeps.items():
        assert spread(sweep.rows) < 0.5, app
        # the topology-aware default (block) is never the bad map
        block = sweep.by(allocation=sweep.rows[0].config.allocation)[0]
        assert block.elapsed <= min(r.elapsed for r in sweep.rows) * 1.05, app


def f4(table, sweeps):
    gains = floats(table, "gain x")
    # the integer/low-ILP apps gain ~2-3x from SIMD + scheduling, and no
    # app regresses
    assert max(gains) > 2.0
    assert min(gains) >= 0.999
    # scheduling itself matters: +simd+sched beats +simd
    for app in ("ngsa", "mvmc"):
        rows = sweeps[app].rows
        assert rows[2].elapsed < rows[1].elapsed * 1.0001, app
    # the point of the tuning: as-is the A64FX clearly loses to Xeon on
    # NGSA; tuned, the gap shrinks substantially
    ratio = {}
    for preset in ("as-is", "+simd+sched"):
        a64fx = run_config(ExperimentConfig(
            app="ngsa", n_ranks=4, n_threads=12, options_preset=preset),
            _CACHE)
        xeon = run_config(ExperimentConfig(
            app="ngsa", processor="Xeon-Skylake", n_ranks=4, n_threads=10,
            options_preset=preset), _CACHE)
        ratio[preset] = a64fx.elapsed / xeon.elapsed  # >1: A64FX slower
    assert ratio["as-is"] > 1.3
    assert ratio["+simd+sched"] < ratio["as-is"] * 0.8


def f5(table, _):
    rel = dict(zip(table.column("miniapp"), floats(table, "Xeon-Skylake")))
    # memory-bound apps: the A64FX clearly wins
    for app in ("ffvc", "nicam-dc", "ffb"):
        assert rel[app] < 0.8, app
    # integer app: Xeon wins as-is (the paper's "poor performance" case)
    assert rel["ngsa"] > 1.0
    # compute-bound: comparable
    assert 0.65 < rel["ntchem"] < 1.35
    # the K-computer generation is an order of magnitude behind
    assert max(floats(table, "SPARC64-VIIIfx")) < 0.35


def f5_large(table, _):
    # on production-size data the A64FX is better or comparable everywhere
    assert all(v < 1.1 for v in floats(table, "Xeon-Skylake"))


def f6(table, _):
    bound = dict(zip(table.column("kernel"), table.column("bound")))
    # SOR is DRAM bound, the RI-MP2 GEMM and the alignment DP compute bound
    assert bound["ffvc-sor"] == "dram"
    assert bound["dgemm-b96"] == "compute"
    assert bound["ngsa-align"] == "compute"
    # both regimes are populated: the suite spans the roofline
    assert {"dram", "compute"} <= set(bound.values())


def f7(table, data):
    compact, scatter = data["compact"], data["scatter"]
    # one CMG saturates near 200 GB/s with compact binding
    assert compact[12] == pytest.approx(200, rel=0.1)
    # scatter over 4 CMGs at 12 threads: ~3x the compact figure
    assert scatter[12] > 2.5 * compact[12]
    # the full chip lands near the STREAM figure (~790-840 GB/s)
    assert 700 < compact[48] < 900
    # single-core demand stream ~45-50 GB/s (HBM2 + prefetcher)
    assert 40 < compact[1] < 55


def f7_xeon(table, data):
    # dual-socket DDR4: the full node well under a quarter of the A64FX
    assert data["compact"][40] < 250


def f8(table, sweeps):
    for app, sweep in sweeps.items():
        times = [row.elapsed for row in sweep.rows]
        # monotone improvement with nodes on the large data sets, but
        # sub-linear (communication and surface effects are real)
        assert all(b < a for a, b in zip(times, times[1:])), app
        assert times[0] / times[-1] < 8.0, app


def f9(table, data):
    for app, times in data.items():
        # near-flat rows: within 25% of ideal at 8 nodes, and never much
        # faster than the single-node point
        assert 0.9 * times[0] < times[-1] < 1.25 * times[0], app


def f10(table, data):
    # the documented dominant kernel carries the plurality of each app
    assert data["ffvc"]["ffvc-sor"] > 25.0
    assert data["ntchem"]["ntchem-gemm"] > 60.0
    assert data["ccs-qcd"]["qcd-dirac"] > 30.0
    assert data["ngsa"]["ngsa-align"] > 40.0
    # MD: near-field pair forces dominate the FMM far field
    assert data["modylas"]["modylas-pair"] > data["modylas"]["modylas-m2l"]
    # the embarrassingly parallel sampler spends almost nothing on p2p
    assert data["mvmc"]["p2p"] < 5.0
    # NGSA is the only app with a visible I/O share
    assert data["ngsa"]["io"] > 2.0
    assert data["ffvc"]["io"] == 0.0


def a1(table, data):
    # compute-bound: near-linear VL scaling; memory-bound: VL barely
    # matters; wider vectors never hurt
    assert data["ntchem"][128] / data["ntchem"][512] > 2.2
    assert data["ffvc"][128] / data["ffvc"][512] < 1.4
    for app, times in data.items():
        assert times[512] <= times[256] <= times[128] * 1.001, app


def a2(table, data):
    # memory-bound: eco costs <5% performance and saves >10% power
    ffvc = data["ffvc"]
    assert ffvc["eco"].elapsed_s < 1.05 * ffvc["normal"].elapsed_s
    assert ffvc["eco"].average_watts < 0.9 * ffvc["normal"].average_watts
    assert ffvc["eco"].gflops_per_watt > ffvc["normal"].gflops_per_watt
    # compute-bound: eco roughly halves throughput, so worse energy
    ntchem = data["ntchem"]
    assert ntchem["eco"].elapsed_s > 1.6 * ntchem["normal"].elapsed_s
    assert ntchem["eco"].flops_per_joule < ntchem["normal"].flops_per_joule
    # boost: ~10% faster on compute-bound at higher power
    assert 1.05 < ntchem["normal"].elapsed_s / ntchem["boost"].elapsed_s < 1.12
    assert ntchem["boost"].average_watts > ntchem["normal"].average_watts


def a3(table, data):
    # the low-ILP / latency-exposed apps gain clearly from a big window
    assert data["mvmc"]["ooo-224"] > 1.2
    assert data["ffb"]["ooo-224"] > 1.5
    # the bandwidth-bound app is insensitive to all three knobs
    for knob, gain in data["ffvc"].items():
        assert gain < 1.15, knob
    # no knob hurts anyone
    for app, row in data.items():
        for knob, gain in row.items():
            assert gain > 0.95, (app, knob)


def a4(table, data):
    for app, (predicted, actual, model) in data.items():
        # projection is order-of-magnitude-and-better, not exact, over a
        # valid non-negative decomposition
        assert 0.4 < predicted / actual < 2.5, app
        assert min(model.weights) >= 0, app
    # the memory-bound app is attributed to the stream benchmark
    assert data["ffvc"][2].dominant_benchmark() == "stream"


def a5(table, data):
    # latency regime: time grows with rank count, not small payloads
    assert data[(8, 64)] > data[(8, 4)]
    assert data[(1 << 10, 64)] < 2 * data[(8, 64)]
    # bandwidth regime: the selected algorithm beats forced recursive
    # doubling clearly at 16 MiB, and selection never loses
    speedups = floats(table, "speedup")
    assert speedups[-1] > 2.0
    assert all(s >= 0.999 for s in speedups)


def a6(table, data):
    # the memory-bound Dirac kernel gains ~2x from halved bytes
    assert 1.7 < data["kernel_ratio"] < 2.2
    # refinement converges with a couple of fp64 sweeps, and the mixed
    # solver needs roughly as many inner iterations as fp64
    assert data["outer"] <= 5
    assert data["inner"] <= 2.0 * data["it64"]
    # net end-to-end: a clear win, below the kernel ratio
    assert 1.3 < data["speedup"] <= data["kernel_ratio"] + 0.01


def p1(table, _):
    # a fapp-style region report of the profiled run
    text = table.render()
    assert "cycle" in text or "GF/s" in text


CLAIMS = {"T1": t1, "T2": t2, "T3": t3, "F1": f1, "F2": f2, "F3": f3,
          "F4": f4, "F5": f5, "F5-large": f5_large, "F6": f6, "F7": f7,
          "F7-Xeon": f7_xeon, "F8": f8, "F9": f9, "F10": f10, "A1": a1,
          "A2": a2, "A3": a3, "A4": a4, "A5": a5, "A6": a6, "P1": p1}


def test_every_artifact_has_claims():
    assert list(CLAIMS) == [a.id for a in ARTIFACTS]


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda a: a.id)
def test_artifact(artifact):
    table, data = built(artifact.id)
    CLAIMS[artifact.id](table, data)
    assert artifact.section(table) in REPORT.read_text(), (
        f"REPORT.md's {artifact.id} section is stale: regenerate it with "
        "`repro report -o REPORT.md`")


def test_report_is_the_committed_copy():
    text = report_text([a.section(built(a.id)[0]) for a in ARTIFACTS])
    assert REPORT.read_text() == text, (
        "REPORT.md is stale: regenerate it with `repro report -o REPORT.md`")
