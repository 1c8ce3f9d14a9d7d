"""The package surface: ``pmgraph`` imports a module on the first use of one
of its names, and every public name is its module's own object.

What an import loads is checked in a fresh interpreter, against the package
under ``src/``; the rest runs in-process.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmgraph

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["bounds", "catalog", "graph", "identities", "invariants", "io", "polynomials", "resistance"]
# names the package no longer has: test-only graph surgery (now
# ``tests/surgery.py``) and a JSON graph format that no command read or wrote
REMOVED = ["subdivide", "one_point_union", "scaled", "graph_to_json_dict", "graph_from_json_dict"]


def _loaded_after(statement):
    """The ``pmgraph.*`` submodules in sys.modules after STATEMENT, in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(k for k in sys.modules if k.startswith('pmgraph.'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stdout)


def test_import_pmgraph_loads_no_module():
    assert _loaded_after("import pmgraph") == []


def test_a_name_loads_only_the_modules_it_needs():
    loaded = _loaded_after("from pmgraph import invariant_set")
    assert loaded == ["pmgraph.graph", "pmgraph.invariants", "pmgraph.resistance"]


def test_a_submodule_attribute_loads_that_module():
    assert _loaded_after("import pmgraph; pmgraph.polynomials") == ["pmgraph.polynomials"]


def test_the_command_line_loads_every_module():
    # the benchmark's tracer finds the layers it wraps in sys.modules
    expected = sorted(f"pmgraph.{name}" for name in [*MODULES, "cli"])
    assert _loaded_after("import pmgraph.cli") == expected


def test_every_public_name_is_its_modules_object():
    assert len(pmgraph.__all__) == 62
    assert pmgraph.__all__[-1] == "__version__"
    assert sorted(pmgraph._EXPORTS) == MODULES
    for name in pmgraph.__all__[:-1]:
        module = importlib.import_module(f"pmgraph.{pmgraph._MODULE_OF[name]}")
        value = getattr(pmgraph, name)
        assert value is getattr(module, name), name
        if callable(value):  # defined there, not imported from elsewhere
            assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("module", ["pmgraph", "pmgraph.graph", "pmgraph.io"])
def test_the_removed_names_are_gone(module):
    loaded = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(loaded, name)] == []


def test_star_import_binds_every_entry():
    namespace = {}
    exec("from pmgraph import *", namespace)
    assert set(pmgraph.__all__) <= set(namespace)
    assert namespace["__version__"] == pmgraph.__version__


def test_dir_lists_every_public_name_and_module():
    listed = dir(pmgraph)
    assert set(pmgraph.__all__) <= set(listed)
    assert set(MODULES) <= set(listed)


def test_a_name_follows_its_modules_binding(monkeypatch):
    invariants = importlib.import_module("pmgraph.invariants")

    def stand_in(graph):
        return None

    monkeypatch.setattr(invariants, "tau", stand_in)
    assert pmgraph.tau is stand_in
    monkeypatch.undo()
    assert pmgraph.tau is invariants.tau


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pmgraph.no_such_name
    assert not hasattr(pmgraph, "no_such_name")
