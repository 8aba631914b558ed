"""Import footprints: the performance path stays off NumPy, and the
CLI's help loads no model.

NumPy belongs to the miniapps' executable physics modules and their
tests.  Importing the runner and scoring configs on either engine must
not load it: every CLI call, pool worker and service worker would pay
its import time for nothing.  ``repro --help`` and every ``repro <cmd>
--help`` take their choices from :mod:`repro.names`, so they load none
of the packages those names come from.
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



def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_TELEMETRY="off")
    env.pop("REPRO_NO_LINT", None)      # the lint gate is on the path too
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_runner_and_both_engines_never_import_numpy():
    child = _run_child(_CHILD)
    assert child.returncode == 0, child.stderr


#: Runs ``repro --help`` then ``repro <cmd> --help`` for every command
#: (``cache compact`` too) in one process, and prints the model modules
#: they loaded.
_HELP_CHILD = """
import argparse, contextlib, io, sys
from repro.cli import build_parser, main

def commands(parser, prefix=()):
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from commands(sub, prefix + (name,))

for argv in commands(build_parser()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main([*argv, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, (argv, exc.code)
    assert out.getvalue().startswith("usage: repro"), argv
    print(" ".join(argv) or "<top>", file=sys.stderr)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] in [
    ["repro", pkg] for pkg in sys.argv[1:]])))
"""

#: The model packages ``repro --help`` must not load.
_MODEL = ("miniapps", "machine", "runtime", "core", "analysis", "telemetry")


def test_cli_help_loads_no_model():
    child = _run_child(_HELP_CHILD, *_MODEL)
    assert child.returncode == 0, child.stderr
    helped = child.stderr.split("\n")
    assert "<top>" in helped and "run" in helped and "cache compact" in helped
    assert child.stdout.split() == []
