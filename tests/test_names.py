"""``repro.names`` holds the names the CLI offers, and they are the
names of what the model registers."""

import ast
from pathlib import Path

from repro import names
from repro.compile.options import PRESETS
from repro.machine import catalog
from repro.miniapps import SUITE
from repro.runtime import openmp
from repro.runtime.affinity import ProcessAllocation


def test_names_match_their_registries():
    assert names.APPS == tuple(sorted(SUITE))
    assert names.PROCESSORS == tuple(sorted(catalog.PROCESSORS))
    assert names.PRESETS == tuple(PRESETS)


def test_owners_use_the_name_tables():
    assert ProcessAllocation.METHODS is names.ALLOCATIONS
    assert openmp.DATA_POLICIES is names.DATA_POLICIES


def test_names_imports_nothing():
    tree = ast.parse(Path(names.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
