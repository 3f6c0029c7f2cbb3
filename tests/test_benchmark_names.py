"""The per-layer metric names in BENCHMARK.json must name public functions.

The traced benchmark run wraps every function in a module's ``__all__`` and
reads each ``<module>.<function>.<metric>`` name from those spans, so a
refactor that renames or drops such a function would otherwise fail only
there. This test reads BENCHMARK.json and never changes it.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# metrics that perfbench/spans.py derives from the spans of other functions
DERIVED = {
    "erasures.subsets": ("erasures.worst_case_error", "erasures.discrete_worst_case"),
    "erasures.us_per_subset": ("erasures.worst_case_error", "erasures.discrete_worst_case"),
    "erasures.partial.calls": ("erasures.fusion_partial_error", "erasures.partial_erasure_error"),
    "cli.report_s": ("cli.run", "cli.main"),
    "trace.overhead_frac": (),
}

# arguments that the tracer reads by name to count enumerated subsets and
# orthonormalized columns
BOUND_BY_NAME = {
    "erasures.worst_case_error": ("pair", "r"),
    "erasures.discrete_worst_case": ("f", "r"),
    "linalg.orthonormal_basis": ("vectors",),
}


def _public_function(label: str):
    module_name, _, attr = label.partition(".")
    module = importlib.import_module(f"fusionframes.{module_name}")
    assert attr in module.__all__, f"{label} is not in fusionframes.{module_name}.__all__"
    fn = getattr(module, attr)
    assert inspect.isfunction(fn), f"{label} is not a function"
    return fn


def test_per_layer_names_resolve_to_public_functions():
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert names
    for name in names:
        if name in DERIVED:
            labels = DERIVED[name]
        elif name.count(".") == 1 and name.endswith(".self_s"):
            importlib.import_module(f"fusionframes.{name.split('.')[0]}")
            labels = ()
        else:
            labels = (name.rpartition(".")[0],)
        for label in labels:
            _public_function(label)


def test_traced_arguments_keep_their_names():
    for label, params in BOUND_BY_NAME.items():
        signature = inspect.signature(_public_function(label))
        assert set(params) <= set(signature.parameters), label
