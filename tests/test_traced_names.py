"""The benchmark's traced function names exist in the package.

perfbench/layers.py names every function the traced benchmark run wraps,
as "<module>.<function>".  The tracer (perfbench/tracer.py,
layer_functions) wraps the public functions defined at module level in
graphcurves.<module>, so a renamed or deleted function silently drops
out of the per-layer metrics.  This test reads the list without running
the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _expected_functions():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.EXPECTED_FUNCTIONS


def test_traced_names_are_public_module_functions():
    names = _expected_functions()
    assert names
    missing = []
    for name in names:
        module, function = name.split(".")
        mod = importlib.import_module(f"graphcurves.{module}")
        obj = vars(mod).get(function)
        if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not function.startswith("_")):
            missing.append(name)
    assert missing == []
