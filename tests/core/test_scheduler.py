"""The Scheduler's analytic path: scored inline on the event loop."""

import asyncio
import threading

from repro.analytic.engine import score_configs
from repro.core.experiment import ExperimentConfig
from repro.core.scheduler import Scheduler


def test_analytic_configs_score_inline_without_a_thread_hop():
    configs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
               for r, t in [(1, 2), (2, 2), (4, 2), (2, 4)]]

    async def drive():
        before = set(threading.enumerate())
        scheduler = Scheduler()
        outcomes = await asyncio.gather(
            *(scheduler.obtain("inline", c, "analytic") for c in configs))
        return outcomes, set(threading.enumerate()) - before

    outcomes, started = asyncio.run(drive())
    assert started == set()
    assert [(ok, value) for _source, ok, value in outcomes] \
        == [(True, row) for row in score_configs(configs)]
