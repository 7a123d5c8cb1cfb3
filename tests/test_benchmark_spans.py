"""The benchmark's traced span list names functions bhdimer still binds.

perfbench/harness.py traces every public function named in its LAYER_OF in
each bhdimer module that binds it, and refuses with LookupError a name bound
to no function or to two objects. LAYER_OF is read with ast: importing the
harness would start its host-speed gauge.
"""

import ast
import importlib
from pathlib import Path

import bhdimer  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def layer_of() -> dict:
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_OF"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/harness.py assigns no LAYER_OF")


def test_every_traced_name_is_one_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = layer_of()
    assert {"evolve_series", "compute_series", "run_scenario"} <= set(names)
    with tracing.Tracer().installed("bhdimer", {n: tracing.Hook() for n in names}):
        pass
