"""Agreement, determinism, and guard-rail tests for the analytic engine.

The agreement sweep covers every catalog processor x every miniapp at a
small (2 ranks x 4 threads) placement: the batched closed-form scorer
must land within the calibrated tolerances of the discrete-event
executor on ``elapsed`` and ``gflops``.  (``comm_fraction`` is *not*
asserted — the analytic model books only algorithm-level communication
time, so its fraction legitimately diverges; see DESIGN.md.)
"""

import dataclasses
import math

import pytest

from repro.analytic import (
    ELAPSED_RTOL,
    GFLOPS_RTOL,
    check_agreement,
    clear_memos,
    score_config,
    score_configs,
    validation_sample,
)
from repro.analytic import engine
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.errors import ConfigurationError, EngineDisagreement
from repro.machine import catalog
from repro.machine.catalog import PROCESSORS
from repro.miniapps import SUITE


def _cfg(app="ffvc", **kw):
    kw.setdefault("n_ranks", 2)
    kw.setdefault("n_threads", 4)
    kw.setdefault("options_preset", "as-is")
    return ExperimentConfig(app=app, **kw)


@pytest.mark.parametrize("processor", sorted(PROCESSORS))
@pytest.mark.parametrize("app_name", SUITE)
def test_agreement_every_machine_every_app(app_name, processor):
    config = _cfg(app_name, processor=processor)
    analytic = score_config(config)
    event = run_config(config, engine="event")
    assert analytic.engine == "analytic"
    assert event.engine == "event"
    assert math.isclose(analytic.elapsed, event.elapsed,
                        rel_tol=ELAPSED_RTOL), \
        f"elapsed {analytic.elapsed} vs {event.elapsed}"
    assert math.isclose(analytic.gflops, event.gflops,
                        rel_tol=GFLOPS_RTOL), \
        f"gflops {analytic.gflops} vs {event.gflops}"


@pytest.mark.parametrize("app_name", SUITE)
def test_bit_identical_across_runs(app_name):
    """Re-scoring after a full memo flush reproduces every field exactly."""
    config = _cfg(app_name)
    first = score_config(config)
    clear_memos()
    second = score_config(config)
    assert first == second  # dataclass equality: bit-identical floats


def test_batch_matches_single_scoring():
    configs = [_cfg("ffvc", n_ranks=nr, n_threads=nt)
               for nr, nt in ((1, 8), (2, 4), (4, 2))]
    batch = score_configs(configs)
    singles = [score_config(c) for c in configs]
    assert batch == singles


def test_score_configs_captures_per_config_errors():
    good = _cfg("ffvc")
    bad = _cfg("ffvc", n_ranks=48, n_threads=48)  # oversubscribes the node
    rows = score_configs([good, bad, good])
    assert rows[0] == rows[2]
    assert rows[0].engine == "analytic"
    assert isinstance(rows[1], ConfigurationError)


def test_check_agreement_raises_beyond_tolerance():
    config = _cfg("ffvc")
    row = score_config(config)
    check_agreement(config, row, row)  # identical rows always agree
    skewed = dataclasses.replace(row, elapsed=row.elapsed * 2.0)
    with pytest.raises(EngineDisagreement) as exc:
        check_agreement(config, row, skewed)
    assert "elapsed" in str(exc.value)


def test_validation_sample_deterministic():
    n = 30
    a = validation_sample("seeded", n, 5)
    b = validation_sample("seeded", n, 5)
    assert a == b
    assert len(a) == 5
    assert all(0 <= i < n for i in a)
    assert a == sorted(a)
    assert validation_sample("seeded", 3, 5) == [0, 1, 2]
    assert validation_sample("seeded", 0, 5) == []


# ----------------------------------------------------------------------
# memo hygiene: clear_memos() empties every table
# ----------------------------------------------------------------------
def _memo_tables():
    """Every lru_cache table and every module-level dict of the engine."""
    return {name: obj for name, obj in vars(engine).items()
            if hasattr(obj, "cache_info") or isinstance(obj, dict)}


def test_clear_memos_empties_every_table():
    before = {name: len(obj) for name, obj in _memo_tables().items()
              if isinstance(obj, dict)}
    score_configs([_cfg(app, n_ranks=4, n_threads=12,
                        data_policy="serial-init") for app in SUITE])
    engine.config_breakdown(_cfg("ffvc"))
    tables = _memo_tables()
    lru = {name: fn for name, fn in tables.items()
           if hasattr(fn, "cache_info")}
    assert all(fn.cache_info().maxsize is not None for fn in lru.values())
    assert all(fn.cache_info().currsize > 0 for fn in lru.values()), \
        "scoring left a table unused; the check below would be vacuous"
    # a module dict that scoring filled is a memo, and must be emptied
    grown = [name for name, obj in tables.items()
             if isinstance(obj, dict) and len(obj) != before[name]]
    clear_memos()
    assert {name: fn.cache_info().currsize for name, fn in lru.items()} \
        == dict.fromkeys(lru, 0)
    assert all(len(tables[name]) == 0 for name in grown)


def _slowed(factory, *, l2=1.0, dram=1.0):
    """A catalog factory whose L2 / DRAM bandwidth is divided."""
    def make(n_nodes=1):
        cluster = factory(n_nodes=n_nodes)
        chips = tuple(
            dataclasses.replace(chip, domains=tuple(
                dataclasses.replace(
                    dom,
                    l2=dataclasses.replace(
                        dom.l2, bytes_per_cycle=dom.l2.bytes_per_cycle / l2),
                    memory=dataclasses.replace(
                        dom.memory,
                        peak_bandwidth=dom.memory.peak_bandwidth / dram,
                        single_stream_bandwidth=(
                            dom.memory.single_stream_bandwidth / dram)))
                for dom in chip.domains))
            for chip in cluster.node.chips)
        return dataclasses.replace(
            cluster, node=dataclasses.replace(cluster.node, chips=chips))
    return make


@pytest.mark.parametrize("slowdown", [{"l2": 64.0}, {"dram": 64.0}],
                         ids=["l2", "dram"])
def test_no_stale_placement_table_after_catalog_change(monkeypatch,
                                                       slowdown):
    """Bandwidth shares live in the placement tables: a catalog change
    must reach the score once the memos are cleared."""
    config = _cfg("ffvc", n_ranks=4, n_threads=12)
    clear_memos()
    baseline = score_config(config)
    monkeypatch.setitem(catalog.PROCESSORS, config.processor,
                        _slowed(catalog.PROCESSORS[config.processor],
                                **slowdown))
    clear_memos()
    slowed = score_config(config)
    assert slowed.elapsed > baseline.elapsed
    monkeypatch.undo()
    clear_memos()
    assert score_config(config) == baseline
