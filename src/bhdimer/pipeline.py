"""One run as a pipeline of stages, and sweeps over runs.

run_scenario builds H, diagonalizes it, propagates the initial state over
the time grid, reduces it to observables, summarizes them (regime,
collapse/revival, time averages, diagnostics) and writes the files. A sweep
runs the cross product of a ratio list and an initial-state list.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import lapack
from .analysis import (
    DEFAULT_THETA_C,
    DEFAULT_THETA_R,
    DEFAULT_WINDOW,
    check_detector,
    classify,
    collapse_revival_time,
    delta_mu_dominance,
    min_series_length,
    time_averaged_imbalance,
)
from .files import FORMATS, write_json, write_output
from .model import CouplingConfig, as_integer, build_hamiltonian
from .observables import ObservableSeries, compute_series
from .presets import parse_ratio, realize_ratio
from .spectral import (
    ConvergenceError, GridPropagator, SpectralDecomposition, StateVector, eigendecompose,
    evolve_series,
)
from .states import parse_state

__all__ = ["DEFAULT_STEPS", "ScenarioSpec", "run_scenario", "sweep"]

DEFAULT_STEPS = 10_000


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one run needs; validated on construction."""

    config: CouplingConfig
    initial: str
    t_max: float = 30.0
    steps: int = DEFAULT_STEPS
    window: int = DEFAULT_WINDOW
    theta_c: float = DEFAULT_THETA_C
    theta_r: float = DEFAULT_THETA_R
    out: Path | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("steps", "window"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be {' or '.join(FORMATS)}, got {self.fmt!r}")
        check_detector(self.window, self.theta_c, self.theta_r)
        parse_state(self.initial, self.config.n_total)  # fail early
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))


def _json_value(x):
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _scenario_dict(spec: ScenarioSpec) -> dict:
    """The files' "spec" member: the coupling's fields, then the run's but
    config and out, in field order, with fmt named "format"."""
    run = {field.name: getattr(spec, field.name) for field in fields(spec)}
    del run["config"], run["out"]
    run["format"] = run.pop("fmt")
    return asdict(spec.config) | run


def _json_dict(d: dict) -> dict:
    return {key: _json_value(value) for key, value in d.items()}


def _summarize(
    spec: ScenarioSpec,
    psi0: StateVector,
    series: ObservableSeries,
    decomp: SpectralDecomposition,
    propagator: GridPropagator,
) -> tuple[dict, np.ndarray | None]:
    cfg = spec.config
    regime = classify(cfg)
    t = series.t

    envelope = None
    detector = dict(window=spec.window, theta_c=spec.theta_c, theta_r=spec.theta_r)
    cr = dict(
        detected=False, t_cr=None, t_cr_rescaled=None, collapse_time=None,
        reason="series_too_short", **detector,
    )
    if len(series) >= min_series_length(spec.window):
        report = collapse_revival_time(
            t, series.imbalance, **detector, amplitude_floor=0.01 * cfg.n_total, n_total=cfg.n_total
        )
        envelope = report.envelope
        # The same keys and two more from the report; detected stays a bool.
        keys = [*cr, "amplitude_floor", "initial_amplitude"]
        cr = _json_dict({key: getattr(report, key) for key in keys}) | {
            "detected": report.detected,
            "envelope_points": int(report.envelope.shape[0]),
        }

    energy = series.energy
    drift = float(np.max(np.abs(energy - energy[0])))
    return {
        "regime": {
            "ratio": _json_value(regime.ratio),
            "regime": regime.regime.value,
            "phase": regime.phase.value,
        },
        "collapse_revival": cr,
        "time_averages": _json_dict({
            "imbalance_scaled": time_averaged_imbalance(t, series.imbalance_scaled),
            "variance": time_averaged_imbalance(t, series.variance),
            "entanglement_bits": time_averaged_imbalance(t, series.entanglement_bits),
        }),
        "extrema": _json_dict({
            "max_entanglement_bits": series.entanglement_bits.max(),
            "min_variance": series.variance.min(),
            "max_abs_imbalance_scaled": np.abs(series.imbalance_scaled).max(),
        }),
        "diagnostics": _json_dict({
            "max_norm_error": series.norm_error.max(),
            "energy_drift_rel": drift / max(1.0, abs(float(energy[0]))),
            "kept_components": propagator.kept_components,
            "kept_per_parity": propagator.kept_per_parity,
            "dropped_weight": propagator.dropped_weight,
            "kept_rows": propagator.basis.kept_rows,
            "dropped_row_weight": propagator.dropped_row_weight,
            "phase_error_bound": propagator.phase_error_bound,
            "eigensolver": "eigh" if lapack.dstevd_symbol() is None else "dstevd",
            "min_level_gap": np.diff(decomp.eigenvalues).min() if decomp.dim > 1 else None,
        }),
        "delta_mu_dominant_initial": delta_mu_dominance(cfg, psi0),
    }, envelope


def run_scenario(
    spec: ScenarioSpec, *, decomposition: SpectralDecomposition | None = None
) -> tuple[ObservableSeries, dict]:
    """Run one scenario; write files when spec.out is set.

    `decomposition`, if given, must be eigendecompose of spec.config's
    Hamiltonian; a sweep shares one per coupling. An empty system (N = 0) has
    no dynamics: its series is the single row t = 0, every observable zero.
    The collapse/revival envelope goes only to the file: the summary is the
    same with or without spec.out. Raises ValueError when the phases
    max|lambda| * t_max overflow.
    """
    cfg = spec.config
    h = build_hamiltonian(cfg)
    psi0 = parse_state(spec.initial, cfg.n_total)
    t = np.linspace(0.0, spec.t_max, spec.steps if cfg.n_total else 1)
    decomp = eigendecompose(h) if decomposition is None else decomposition
    # Positional arguments: the benchmark's span hooks read them by index.
    propagator = evolve_series(decomp, psi0, t)
    series = compute_series(propagator, t, h)

    summary, envelope = _summarize(spec, psi0, series, decomp, propagator)
    if spec.out is not None:
        write_output(spec.out, spec.fmt, _scenario_dict(spec), series, summary, envelope)
    return series, summary


_SLUG = str.maketrans({"/": "over", "*": "x", "^": "", ":": "-", ",": "-", " ": ""})


def _cell_file(ratio_token: str, initial: str, fmt: str) -> str:
    return f"r{str(ratio_token).translate(_SLUG)}__{initial.translate(_SLUG)}.{fmt}"


def sweep(
    base: ScenarioSpec,
    ratio_tokens,
    initials,
    out_dir=None,
    jobs: int = 1,
) -> dict:
    """Cross product of ratios and initial states; cells fail independently.

    A cell whose input is invalid (ValueError) or whose eigensolver fails
    (ConvergenceError) is recorded with status "error"; any other exception
    is a program fault and propagates. `jobs` (>= 1) cells run at once on
    threads. The cells of one coupling share one decomposition, made by the
    first of them to run and released after the last.

    Returns the combined summary, keyed by (ratio token, initial). When
    out_dir is given it is made before any cell runs, each cell writes its
    own series file there and the combined summary lands in
    out_dir/summary.json; cells that would write the same file (a repeated
    ratio, say) are a ValueError raised before the directory is made.
    """
    ratio_tokens = list(ratio_tokens)
    initials = list(initials)
    if not ratio_tokens or not initials:
        raise ValueError("sweep needs at least one ratio and one initial state")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = [(rt, init) for rt in ratio_tokens for init in initials]
    if out_dir is not None:
        names = [_cell_file(rt, init, base.fmt) for rt, init in cells]
        if len(set(names)) < len(names):
            clash = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"two sweep cells would both write {clash}")
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    # Each ratio token's coupling, or the ValueError that fails each of its
    # cells instead.
    n, delta_mu = base.config.n_total, base.config.delta_mu
    couplings = {}
    for ratio_token in ratio_tokens:
        try:
            k, e_j = realize_ratio(parse_ratio(ratio_token, n))
            couplings[ratio_token] = CouplingConfig(n, k=k, delta_mu=delta_mu, e_j=e_j)
        except ValueError as exc:
            couplings[ratio_token] = exc
    # Cells left per coupling; an error is counted too, and never decomposed.
    left = Counter(couplings[rt] for rt, _ in cells)
    locks = {config: threading.Lock() for config in left}
    made = {}

    def decomposition(config):
        with locks[config]:
            if config not in made:
                made[config] = eigendecompose(build_hamiltonian(config))
            return made[config]

    def run_cell(cell):
        ratio_token, initial = cell
        entry = {"ratio": str(ratio_token), "initial": initial}
        config = couplings[ratio_token]
        try:
            if isinstance(config, ValueError):
                raise config
            out = None if out_dir is None else out_dir / _cell_file(ratio_token, initial, base.fmt)
            spec = replace(base, config=config, initial=initial, out=out)
            entry["ratio_value"] = config.ratio
            if out is not None:
                entry["file"] = out.name
            _, cell_summary = run_scenario(spec, decomposition=decomposition(config))
            entry["status"] = "ok"
            entry["summary"] = cell_summary
        except (ValueError, ConvergenceError) as exc:  # keep the other cells running
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            with locks[config]:
                left[config] -= 1
                if not left[config]:
                    made.pop(config, None)
        return entry

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        entries = list(pool.map(run_cell, cells))

    summary = {"base": _scenario_dict(base), "cells": entries}
    if out_dir is not None:
        write_json(out_dir / "summary.json", summary)
    return summary
