"""The benchmark's traced function names exist in the package.

perfbench/layers.py names every function the traced benchmark run wraps,
as "<module>.<function>".  The tracer (perfbench/tracer.py,
layer_functions) wraps the public functions defined at module level in
graphcurves.<module>, so a renamed or deleted function silently drops
out of the per-layer metrics.  This test reads the list without running
the benchmark.
"""

import importlib
import inspect

from helpers import load_by_path


def test_traced_names_are_public_module_functions():
    names = load_by_path("perfbench/layers.py").EXPECTED_FUNCTIONS
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
