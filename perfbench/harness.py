"""Benchmark worker: runs one bhdimer workload operation in a fresh process.

    python3 perfbench/harness.py --workload NAME --seed N \\
        --mode untraced|traced|serial --out DIR

`run.py` starts it with the checkout's src/ on PYTHONPATH and OpenBLAS
pinned to one thread (NOTES.md says why). It times the seconds from process
start to validated workload specs, imports included; runs the workload's
run_scenario/sweep call once; reads its series files back READBACK_REPS
times; checks every cell; and prints one JSON line with the measurements, the failures,
the output hashes and the provenance. A host-speed gauge (gauge.py)
samples each of the three timed sections, so that run.py can scale them to
a reference host. `traced` wraps each layer in spans and adds per-layer
metrics; `serial` runs a sweep with one job.

One operation per process, because a first call pays for fresh memory that
later calls in the same process reuse, and each bhdimer CLI run is a fresh
process.
"""

import time

from gauge import Gauge  # standard library only

_SETUP_GAUGE = Gauge().start()
_T0 = time.perf_counter()  # setup_s counts from here, imports included

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import bhdimer
from bhdimer import PRESETS, CouplingConfig, ObservableSeries, ScenarioSpec
from bhdimer.cli import parse_ratio, realize_ratio
from tracing import Hook, Tracer, maxrss_kb, self_times

READBACK_REPS = 3
REFERENCE_TIMES = 4  # grid times per cell compared with the dense reference
NORM_ERROR_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-9
REFERENCE_ERR_MAX = 1e-6
# CSV rows carry 12 significant digits, so a read-back value may differ from
# the in-memory one by half a unit in the 12th digit; JSON floats round-trip.
CSV_RTOL = 5.0001e-12


# ---------------------------------------------------------------------------
# workloads


def _rabi_physics(summary: dict) -> str | None:
    t_cr = summary["collapse_revival"]["t_cr"]
    if t_cr is None or abs(t_cr - 4 * math.pi) > 0.05 * 4 * math.pi:
        return f"t_cr={t_cr} is not within 5% of 4*pi"
    return None


def _selftrap_physics(summary: dict) -> str | None:
    cr = summary["collapse_revival"]
    mean = summary["time_averages"]["imbalance_scaled"]
    if not cr["detected"]:
        return f"collapse/revival not detected ({cr['reason']})"
    if not mean < -0.5:
        return f"mean scaled imbalance {mean} is not < -0.5"
    return None


def _preset_spec(preset: str, n: int, out: Path, **overrides) -> ScenarioSpec:
    p = PRESETS[preset].build(n)
    fields = dict(t_max=p["t_max"], steps=p.get("steps", 10_000))
    fields.update(overrides)
    return ScenarioSpec(
        CouplingConfig(n, k=p["k"], e_j=p["e_j"]), p["initial"], out=out, **fields
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a single scenario, or a sweep when ratios are set.

    spec(out_dir) gives the scenario (writing into out_dir) or the sweep's
    base spec.
    """

    spec: Callable[[Path], ScenarioSpec]
    ratios: tuple = ()
    initials: tuple = ()
    jobs: int = 1
    physics: Callable[[dict], str | None] = lambda summary: None

    def cell_specs(self, out: Path) -> list[ScenarioSpec]:
        base = self.spec(out)
        if not self.ratios:
            return [base]
        n = base.config.n_total
        specs = []
        for token in self.ratios:
            k, e_j = realize_ratio(parse_ratio(token, n))
            config = CouplingConfig(n, k=k, delta_mu=base.config.delta_mu, e_j=e_j)
            specs.extend(replace(base, config=config, initial=i) for i in self.initials)
        return specs


WORKLOADS = {
    # The preset as the paper runs it, at a size where one operation takes a
    # few seconds: the Python QL decomposition (~N^2.6) and the
    # dim^2-per-step propagation each take a large share.
    "rabi-n400": Workload(
        spec=lambda out: _preset_spec("fig-rabi", 400, out / "rabi-n400.csv"),
        physics=_rabi_physics,
    ),
    # Decomposition negligible; per-step work, the state list, JSON write and
    # read-back dominate. Window 1005 at 5e4 steps spans the same time as the
    # preset's 201 at 1e4 steps.
    "selftrap-long": Workload(
        spec=lambda out: _preset_spec(
            "fig-selftrap", 100, out / "selftrap-long.json",
            steps=50_000, window=1005, fmt="json",
        ),
        physics=_selftrap_physics,
    ),
    # Rabi / threshold / self-trapped ratios x three initial states on two
    # threads: each coupling appears three times, and the spectral weight an
    # initial state carries ranges from a few levels to a parity sector.
    "sweep-matrix": Workload(
        spec=lambda out: ScenarioSpec(
            CouplingConfig(200, k=0.0, e_j=1.0), "fock:200,0", t_max=50.0, steps=4000
        ),
        ratios=("1/N^2", "4/N", "N"),
        initials=("fock:200,0", "cat", "me"),
        jobs=2,
    ),
}


# ---------------------------------------------------------------------------
# correctness


def _reference_state(descriptor: str, n: int) -> np.ndarray:
    c = np.zeros(n + 1)
    if descriptor == "cat":
        c[[0, n]] = math.sqrt(0.5)
    elif descriptor == "me":
        c[:] = 1.0 / math.sqrt(n + 1)
    else:
        _, mode2 = descriptor.removeprefix("fock:").split(",")
        c[int(mode2)] = 1.0
    return c


def reference_imbalance_scaled(spec: ScenarioSpec, times: np.ndarray) -> np.ndarray:
    """<N1 - N2>/N at `times` from a dense numpy.linalg.eigh of H, built here
    from the model's formula in the basis |N-n, n>."""
    cfg = spec.config
    n = cfg.n_total
    m = np.arange(n + 1, dtype=np.float64)
    z = n - 2.0 * m
    off = -(cfg.e_j / 2.0) * np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    h = np.diag((cfg.k / 8.0) * z**2 - (cfg.delta_mu / 2.0) * z)
    h += np.diag(off, 1) + np.diag(off, -1)
    lam, v = np.linalg.eigh(h)
    a = v.T @ _reference_state(spec.initial, n)
    psi = v @ (a[:, None] * np.exp(-1j * np.outer(lam, times)))
    p = psi.real**2 + psi.imag**2
    return (z @ p) / p.sum(axis=0) / n


@dataclass
class Cell:
    spec: ScenarioSpec
    series: ObservableSeries
    summary: dict
    seconds: float


def check_cell(w: Workload, cell: Cell, read: ObservableSeries, ref_idx) -> tuple[list, float]:
    """Reasons the cell fails (empty when it passes) and its reference error."""
    problems = []
    diag = cell.summary["diagnostics"]
    if not diag["max_norm_error"] <= NORM_ERROR_MAX:
        problems.append(f"max_norm_error {diag['max_norm_error']}")
    if not diag["energy_drift_rel"] <= ENERGY_DRIFT_MAX:
        problems.append(f"energy_drift_rel {diag['energy_drift_rel']}")
    rtol = 0.0 if cell.spec.fmt == "json" else CSV_RTOL
    for name in ObservableSeries.COLUMNS:
        mem, got = getattr(cell.series, name), getattr(read, name)
        if mem.shape != got.shape or np.any(np.abs(got - mem) > rtol * np.abs(mem)):
            problems.append(f"read_series does not reproduce column {name}")
    t = cell.series.t[ref_idx]
    err = float(np.max(np.abs(
        reference_imbalance_scaled(cell.spec, t) - cell.series.imbalance_scaled[ref_idx]
    )))
    if not err <= REFERENCE_ERR_MAX:
        problems.append(f"imbalance_scaled differs from the dense reference by {err:.3g}")
    physics = w.physics(cell.summary)
    if physics:
        problems.append(physics)
    return problems, err


def decomposition_quality(h, decomp) -> tuple[float, float]:
    """Relative residual max|HV - V diag(lam)| / max|lam| and max|V^T V - I|."""
    v, lam = decomp.eigenvectors, decomp.eigenvalues
    hv = h.diagonal[:, None] * v
    hv[:-1] += h.offdiagonal[:, None] * v[1:]
    hv[1:] += h.offdiagonal[:, None] * v[:-1]
    scale = max(float(np.abs(lam).max()), np.finfo(float).tiny)
    residual = float(np.abs(hv - v * lam).max()) / scale
    orthogonality = float(np.abs(v.T @ v - np.eye(lam.size)).max())
    return residual, orthogonality


# ---------------------------------------------------------------------------
# tracing hooks


def cell_id(spec: ScenarioSpec) -> str:
    return spec.out.name.split(".")[0] if spec.out is not None else spec.initial


def _propagate_counts(args, result, span) -> None:
    # Computed from array sizes, not measured: per grid time two real gemvs
    # with the (dim, dim) eigenvector matrix (4 dim^2 flops, 16 dim^2 bytes
    # read) plus elementwise phase work; one more gemv pair for the overlaps.
    dim, steps = args[0].dim, len(args[2])
    span.counts["flops"] = 4 * dim * dim * (steps + 1) + 8 * dim * steps
    span.counts["bytes"] = 16 * dim * dim * (steps + 1) + 16 * dim * steps


# Span names (the functions run_scenario/sweep call in bhdimer.cli) -> layer.
LAYER_OF = {
    "build_hamiltonian": "model",
    "parse_state": "states",
    "eigendecompose": "spectral",
    "evolve_series": "spectral",
    "compute_series": "observables",
    "classify": "analysis",
    "collapse_revival_time": "analysis",
    "time_averaged_imbalance": "analysis",
    "run_scenario": "cli",
    "sweep": "cli",
    "read_series": "cli",
}


class Recorder:
    """What one operation's hooks capture for the checks and metrics."""

    def __init__(self):
        self.cells: list[Cell] = []
        self.decompositions: list = []

    def cell(self, args, result, span) -> None:
        self.cells.append(Cell(args[0], result[0], result[1], span.duration))

    def decomposition(self, args, result, span) -> None:
        self.decompositions.append((args[0], result))

    def hooks(self, traced: bool) -> dict:
        """Untraced: one span per cell (run_scenario); traced: every layer."""
        cell = Hook(cell_of=lambda args: cell_id(args[0]), on_return=self.cell)
        if not traced:
            return {"run_scenario": cell}
        return {
            **{name: Hook() for name in LAYER_OF},
            "run_scenario": cell,
            "eigendecompose": Hook(on_return=self.decomposition),
            "evolve_series": Hook(on_return=_propagate_counts),
        }


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int) -> dict:
    src = Path(bhdimer.__file__).resolve().parents[1]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(src.parent),
        "source_sha256": _source_sha256(src),
    }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-layer metrics


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_table(spans, selfs: dict) -> dict:
    """Layer -> calls, self time and own peak-RSS growth (children's removed)."""
    child_growth: dict = {}
    for s in spans:
        if s.parent is not None:
            child_growth[s.parent] = child_growth.get(s.parent, 0) + s.rss_growth_kb
    table: dict = {}
    for s in spans:
        row = table.setdefault(LAYER_OF[s.name], {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["rss_growth_mb"] += max(0, s.rss_growth_kb - child_growth.get(s.id, 0)) / 1024.0
    return table


def layer_metrics(spans, selfs: dict, wall: float, cpu: float, quality: list, output_bytes: int) -> dict:
    """Per-layer metrics of one traced operation, from its spans."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def duration_s(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def rss_mb(*names):
        return sum(s.rss_growth_kb for n in names for s in by_name.get(n, ())) / 1024.0

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    propagate_s = self_s("evolve_series")
    residual, orthogonality = np.max(quality, axis=0) if quality else (0.0, 0.0)
    return {
        "model.build_s": _metric(self_s("build_hamiltonian"), "s"),
        "states.parse_s": _metric(self_s("parse_state"), "s"),
        "spectral.decompose_s": _metric(self_s("eigendecompose"), "s"),
        "spectral.decompose_calls": _metric(len(by_name.get("eigendecompose", ())), "count"),
        "spectral.residual_max": _metric(residual, "1"),
        "spectral.orthogonality_max": _metric(orthogonality, "1"),
        "spectral.propagate_s": _metric(propagate_s, "s"),
        "spectral.propagate_flops": _metric(count("evolve_series", "flops"), "flop"),
        "spectral.propagate_gflops": _metric(
            count("evolve_series", "flops") / propagate_s / 1e9 if propagate_s > 0 else 0.0,
            "GFLOP/s",
        ),
        "spectral.propagate_bytes": _metric(count("evolve_series", "bytes"), "B"),
        "spectral.rss_growth_mb": _metric(rss_mb("eigendecompose", "evolve_series"), "MB"),
        "observables.series_s": _metric(self_s("compute_series"), "s"),
        "observables.rss_growth_mb": _metric(rss_mb("compute_series"), "MB"),
        "analysis.collapse_revival_s": _metric(self_s("collapse_revival_time"), "s"),
        "analysis.time_average_s": _metric(self_s("time_averaged_imbalance"), "s"),
        "analysis.classify_s": _metric(self_s("classify"), "s"),
        "cli.self_s": _metric(self_s("run_scenario"), "s"),
        "cli.output_bytes": _metric(output_bytes, "B"),
        "cli.read_s": _metric(duration_s("read_series") / READBACK_REPS, "s"),
        "cli.sweep_cpu_util": _metric(cpu / wall, "1"),
        "cli.sweep_overlap": _metric(duration_s("run_scenario") / wall, "1"),
        "trace.spans": _metric(len(spans), "count"),
    }


# ---------------------------------------------------------------------------
# one operation


def run_op(w: Workload, seed: int, mode: str, out: Path) -> dict:
    """Run, read back and check the workload once; results as a JSON-able dict."""
    traced = mode == "traced"
    jobs = 1 if mode == "serial" else w.jobs
    op_dir = out / "series"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    spec = w.spec(op_dir)
    rng = np.random.default_rng(seed)
    ref_idx = np.sort(rng.choice(spec.steps, size=REFERENCE_TIMES, replace=False))

    rec, tracer = Recorder(), Tracer()
    with tracer.installed("bhdimer", rec.hooks(traced)):
        with Gauge() as op_gauge:
            c0, t0 = time.process_time(), time.perf_counter()
            if w.ratios:
                summary = bhdimer.sweep(spec, w.ratios, w.initials, out_dir=op_dir, jobs=jobs)
            else:
                bhdimer.run_scenario(spec)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        cells = sorted(rec.cells, key=lambda c: c.spec.out.name)
        reads = []
        for _ in range(READBACK_REPS):
            with Gauge() as read_gauge:
                t0 = time.perf_counter()
                readback = [bhdimer.read_series(c.spec.out) for c in cells]
                reads.append({"seconds": time.perf_counter() - t0, "gauge": read_gauge.summary()})
    peak_rss_mb = maxrss_kb() / 1024.0

    failures = {}
    attempted = 1
    if w.ratios:
        attempted = len(summary["cells"])
        for entry in summary["cells"]:
            if entry["status"] != "ok":
                failures[f"{entry['ratio']}|{entry['initial']}"] = [entry["error"]]
    reference_err = 0.0
    for cell, read in zip(cells, readback):
        problems, err = check_cell(w, cell, read, ref_idx)
        reference_err = max(reference_err, err)
        if problems:
            failures[cell_id(cell.spec)] = problems

    files = sorted(op_dir.iterdir())
    hashes = {p.name: _sha256(p) for p in files}
    output_bytes = sum(p.stat().st_size for p in files)
    shutil.rmtree(op_dir)

    spans_path = layers = table = None
    if traced:
        spans_path = out / "spans.jsonl"
        tracer.write(spans_path)
        selfs = self_times(tracer.spans)
        quality = [decomposition_quality(h, d) for h, d in rec.decompositions]
        layers = layer_metrics(tracer.spans, selfs, wall, cpu, quality, output_bytes)
        table = layer_table(tracer.spans, selfs)
    return {
        "mode": mode,
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": cpu,
        "cell_s": [c.seconds for c in cells],
        "reads": reads,
        "gauge": op_gauge.summary(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "cells": [cell_id(c.spec) for c in cells],
        "outputs_sha256": hashes,
        "reference_times": [int(i) for i in ref_idx],
        "reference_err_max": reference_err,
        "layers": layers,
        "layer_table": table,
        "spans": str(spans_path) if spans_path else None,
        "provenance": provenance(seed),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("untraced", "traced", "serial"), default="untraced")
    p.add_argument("--out", type=Path, default=Path(".perfbench_out") / "op")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    w.cell_specs(Path("unused"))
    setup = time.perf_counter() - _T0
    _SETUP_GAUGE.stop()
    result = run_op(w, args.seed, args.mode, args.out.resolve())
    result["setup"] = {"seconds": setup, "gauge": _SETUP_GAUGE.summary()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
