"""The performance path stays off NumPy.

NumPy belongs to the miniapps' executable physics modules and their
tests.  Importing the runner and scoring configs on either engine must
not load it: every CLI call, pool worker and service worker would pay
its import time for nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_CHILD = """
import sys
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config

config = ExperimentConfig(app="ccs-qcd", n_ranks=2, n_threads=24)
assert run_config(config).engine == "event"
assert run_config(config, engine="analytic").engine == "analytic"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded[:5]
"""


def test_runner_and_both_engines_never_import_numpy():
    env = dict(os.environ, REPRO_TELEMETRY="off")
    env.pop("REPRO_NO_LINT", None)      # the lint gate is on the path too
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    child = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
