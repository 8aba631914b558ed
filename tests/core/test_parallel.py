"""Tests for process-pool sweep execution.

The load-bearing property: ``run_sweep(..., workers=N)`` must be
indistinguishable from the serial run — same rows, same order, same
bytes — for any config list, including duplicates and shuffles.
"""

import asyncio
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import SweepError, default_workers, run_configs
from repro.core.runner import Row, run_config, run_sweep
from repro.errors import LintError
from repro.runtime.affinity import ThreadBinding


def mixed_configs() -> list[ExperimentConfig]:
    """A small mixed F1 + F2 config list (MPI x OpenMP grid points plus
    thread-stride variants), as the paper's experiments combine them."""
    f1 = [
        ExperimentConfig(app=app, n_ranks=nr, n_threads=nt)
        for app in ("ffvc", "mvmc")
        for nr, nt in [(1, 8), (2, 4), (4, 2)]
    ]
    f2 = [
        ExperimentConfig(app="ffvc", n_ranks=4, n_threads=4,
                         binding=(ThreadBinding("compact") if s == 1
                                  else ThreadBinding("stride", stride=s)),
                         data_policy="serial-init")
        for s in (1, 4)
    ]
    return f1 + f2


#: A config whose placement cannot fit one node (2 x 48 > 48 cores).
BAD_CONFIG = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=48)


def _canon(row) -> bytes:
    """Byte-exact canonical serialization of a Row (floats via repr,
    which round-trips every bit)."""
    from repro.core.persistence import row_to_dict

    return json.dumps(row_to_dict(row), sort_keys=True).encode()


class TestParallelIdentity:
    @pytest.mark.parametrize("engine", ["event", "analytic", "auto"])
    def test_parallel_rows_byte_identical_to_serial(self, engine):
        """Property: for seeded shuffles/duplications of a mixed F1+F2
        list, workers=4 and one ``run_config`` per config reproduce the
        serial sweep's rows byte-for-byte."""
        rng = random.Random(20210907)
        base = mixed_configs()
        for trial in range(2):
            configs = list(base)
            rng.shuffle(configs)
            # duplicate a few points — dedup must fan results back out
            configs += rng.sample(configs, k=3)
            serial = run_sweep("s", configs, engine=engine)
            parallel = run_sweep("s", configs, workers=4, engine=engine)
            one_by_one = [run_config(c, engine=engine) for c in configs]
            assert serial.rows == parallel.rows == one_by_one
            # canonical-serialization bytes: identical config, order, and
            # every float bit (pickle bytes would differ on string
            # interning alone for configs that crossed the pool boundary)
            expected = [_canon(r) for r in serial.rows]
            for rows in (parallel.rows, one_by_one):
                assert [_canon(r) for r in rows] == expected

    def test_parallel_respects_cache(self, tmp_path):
        configs = mixed_configs()
        cache = ResultCache(tmp_path)
        first = run_sweep("warmup", configs, cache, workers=4)
        warm = ResultCache(tmp_path)
        second = run_sweep("warm", configs, warm, workers=4)
        assert [r.elapsed for r in first.rows] == \
            [r.elapsed for r in second.rows]
        assert warm.hits == len(configs)

    def test_workers_one_is_serial(self):
        configs = mixed_configs()[:2]
        assert run_sweep("a", configs, workers=1).rows == \
            run_sweep("b", configs, workers=0).rows

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        class Unavailable:
            def __init__(self, *a, **kw):
                raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Unavailable)
        configs = mixed_configs()[:3]
        sweep = run_sweep("fallback", configs, workers=4)
        assert len(sweep.rows) == 3

    def test_parallel_sweep_inside_running_loop(self):
        """A notebook already runs an event loop on the calling thread;
        a parallel sweep must still work there."""
        configs = mixed_configs()[:3]

        async def in_notebook():
            return run_sweep("nb", configs, workers=2)

        assert asyncio.run(in_notebook()).rows == \
            run_sweep("nb", configs).rows

    def test_serial_and_analytic_sweeps_leave_asyncio_unimported(
            self, tmp_path):
        """Only a parallel event sweep pays for the event loop."""
        code = (
            "import sys\n"
            "from repro.core.experiment import ExperimentConfig\n"
            "from repro.core.runner import run_config, run_sweep\n"
            "cs = [ExperimentConfig(app='ffvc', n_ranks=1, n_threads=t)\n"
            "      for t in (1, 2)]\n"
            "run_sweep('serial', cs, workers=1)\n"
            "run_sweep('analytic', cs, workers=2, engine='analytic')\n"
            "run_config(cs[0])\n"
            "run_config(cs[0], engine='analytic')\n"
            "print('asyncio' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestErrorCapture:
    def test_raise_is_default(self):
        # the pre-flight lint catches the infeasible placement before
        # any simulation time is spent
        with pytest.raises(LintError):
            run_sweep("boom", [BAD_CONFIG])

    def test_capture_keeps_surviving_rows_serial(self):
        good = mixed_configs()[:2]
        sweep = run_sweep("cap", [good[0], BAD_CONFIG, good[1]],
                          errors="capture")
        assert [r.config for r in sweep.rows] == [c for c in good]
        assert len(sweep.errors) == 1
        err = sweep.errors[0]
        assert isinstance(err, SweepError)
        assert err.config == BAD_CONFIG
        assert err.error == "LintError"
        assert "placement-infeasible" in str(err)

    def test_capture_keeps_surviving_rows_parallel(self):
        good = mixed_configs()[:3]
        sweep = run_sweep("cap", good + [BAD_CONFIG], workers=4,
                          errors="capture")
        assert len(sweep.rows) == 3
        assert len(sweep.errors) == 1

    def test_parallel_raise_propagates(self):
        with pytest.raises(LintError):
            run_sweep("boom", mixed_configs()[:2] + [BAD_CONFIG], workers=4)

    def test_bad_errors_mode_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("x", [], errors="ignore")


class TestRunConfigs:
    def test_outcomes_align_with_inputs(self):
        cfg = mixed_configs()[0]
        outcomes = run_configs([cfg, BAD_CONFIG, cfg])
        assert isinstance(outcomes[0], Row)
        assert isinstance(outcomes[1], LintError)
        assert outcomes[2] is outcomes[0]  # dedup shares the row

    def test_cache_hits_skip_dispatch(self):
        cfg = mixed_configs()[0]
        memo = {}
        run_configs([cfg], cache=memo)
        sentinel = memo[cfg]
        outcomes = run_configs([cfg], cache=memo, workers=4)
        assert outcomes[0] is sentinel
