"""The package surface: every exported name resolves, the README's Python
API example runs and prints what its comments say, and its command lines
run."""

import importlib
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bhdimer
from bhdimer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["bhdimer"] + [
    f"bhdimer.{info.name}" for info in pkgutil.iter_modules(bhdimer.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []


def test_package_exports_the_public_api():
    assert set(bhdimer.__all__) == {
        "CollapseRevivalReport", "ConvergenceError", "CouplingConfig", "ObservableSeries",
        "PRESETS", "Phase", "Regime", "RegimeReport", "ScenarioSpec", "SpectralDecomposition",
        "StateVector", "TridiagonalHamiltonian", "build_hamiltonian", "cat", "classify",
        "collapse_revival_time", "compute_series", "delta_mu_dominance", "eigendecompose",
        "entanglement_entropy", "envelope", "evolve", "evolve_series", "expectation_imbalance",
        "fock", "imbalance_diagonal", "maximally_entangled", "parse_state", "read_series",
        "run_scenario", "sweep", "time_averaged_imbalance", "variance_imbalance",
    }


def test_import_leaves_out_the_executor_modules():
    # A sweep runs its cells on plain threads; no process pays for these
    # imports. orjson is loaded by the first JSON list written or read.
    paths = [str(Path(bhdimer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys, bhdimer, bhdimer.cli; "
        "print(sorted({'concurrent.futures', 'logging', 'orjson'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_python_api_example_runs(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    t_cr_over_pi, regime = capsys.readouterr().out.splitlines()
    assert math.isclose(float(t_cr_over_pi), 4.0, rel_tol=0.05)
    assert regime == "rabi delocalized"


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bhdimer ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert "fig-rabi" in capsys.readouterr().out
    assert (tmp_path / "run.csv").is_file() and (tmp_path / "run.json").is_file()
    assert any((tmp_path / "sweepdir").iterdir())
