"""The benchmark harness still finds every bhdimer name it uses.

perfbench/harness.py imports names from bhdimer modules, and traces every
public function named in its LAYER_OF in each bhdimer module that binds it,
refusing with LookupError a name bound to no function or to two objects.
Its propagation and observables layers are the evolve_series and
compute_series spans, so every run must call both, with the grid as the
third and second positional argument, whether or not the state keeps a
window of its rows. The harness is read with ast:
importing it would start its host-speed gauge.
"""

import ast
import importlib
from pathlib import Path

import bhdimer  # noqa: F401  (loads every module the tracer patches)
from bhdimer import pipeline
from bhdimer.model import CouplingConfig

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


def test_each_run_traces_one_propagation_and_one_full_grid_reduction(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")

    def propagation(args, result, span):
        # What the harness's _propagate_counts reads.
        span.counts.update(dim=args[0].dim, steps=len(args[2]))

    def reduction(args, result, span):
        span.counts.update(steps=len(args[1]))

    hooks = {name: tracing.Hook() for name in layer_of()}
    hooks["evolve_series"] = tracing.Hook(on_return=propagation)
    hooks["compute_series"] = tracing.Hook(on_return=reduction)
    base = pipeline.ScenarioSpec(
        CouplingConfig(20, k=1.0, e_j=2.0), "fock:20,0", t_max=5.0, steps=300, window=21
    )
    tracer = tracing.Tracer()
    with tracer.installed("bhdimer", hooks):
        pipeline.run_scenario(base)
        # At ratio N the state keeps a window of its rows.
        summary = pipeline.sweep(base, ["1", "0.25", "N"], ["fock:20,0"], jobs=2)
    assert [cell["status"] for cell in summary["cells"]] == ["ok", "ok", "ok"]
    kept = [cell["summary"]["diagnostics"]["kept_rows"] for cell in summary["cells"]]
    assert kept[:2] == [21, 21] and kept[2] < 21

    runs = [s for s in tracer.spans if s.name == "run_scenario"]
    assert len(runs) == 4
    for run in runs:
        children = [s for s in tracer.spans if s.parent == run.id]
        propagations = [s.counts for s in children if s.name == "evolve_series"]
        reductions = [s.counts for s in children if s.name == "compute_series"]
        assert propagations == [{"dim": 21, "steps": 300}]
        assert reductions.count({"steps": 300}) == 1


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
