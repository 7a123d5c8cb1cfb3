"""The benchmark harness still finds every bhdimer name it uses.

perfbench/harness.py imports names from bhdimer modules, and traces every
public function named in its LAYER_OF in each bhdimer module that binds it,
refusing with LookupError a name bound to no function or to two objects.
The harness is read with ast: importing it would start its host-speed gauge.
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


def test_every_name_the_harness_takes_from_bhdimer_resolves():
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    wanted = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bhdimer"
        for alias in node.names
    ]
    wanted += [
        ("bhdimer", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "bhdimer"
    ]
    assert {"parse_ratio", "sweep"} <= {name for _, name in wanted}
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
