"""The benchmark tracer's layer table names functions that exist.

``bench/tracer.py`` rebinds each ``LAYERS`` target by name and silently
records a missing one, so a renamed function would blank its per-layer
trace.  This loads the tracer from its file and resolves every target the
way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_target_is_callable(layer):
    module_name, attr = LAYERS[layer]
    owner_name, _, member = attr.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner).get(member)), f"{layer}: {module_name}.{attr} is missing"
