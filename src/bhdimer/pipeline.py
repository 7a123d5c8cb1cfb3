"""One run as a pipeline of stages, and sweeps over runs.

run_scenario builds H, diagonalizes it, propagates the initial state over
the time grid, reduces it to observables, summarizes them (regime,
collapse/revival, time averages, diagnostics) and writes the files. A sweep
runs the cross product of a ratio list and an initial-state list.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
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
from .files import FORMATS, NonFiniteOutputError, write_json, write_output
from .model import CouplingConfig, as_integer, as_real, build_hamiltonian
from .observables import ObservableSeries, ZeroNormError, compute_series
from .presets import parse_ratio, realize_ratio
from .spectral import (
    ConvergenceError, GridPropagator, PhaseOverflowError, SpectralDecomposition, StateVector,
    eigendecompose, evolve_series,
)
from .states import parse_state

__all__ = ["DEFAULT_STEPS", "RUN_FAILURES", "ScenarioSpec", "check_sweep", "run_scenario", "sweep"]

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
        for name in ("t_max", "theta_c", "theta_r"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        # A subnormal step is too coarse for the detector's uniform-grid check.
        if self.t_max / (self.steps - 1) < np.finfo(float).tiny:
            raise ValueError(
                f"t_max {self.t_max} over {self.steps} steps: the grid step is subnormal"
            )
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be {' or '.join(FORMATS)}, got {self.fmt!r}")
        check_detector(self.window, self.theta_c, self.theta_r)
        build_hamiltonian(self.config)  # fail early; an overflow wins over a bad state
        parse_state(self.initial, self.config.n_total)
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))
            if self.out.suffix[1:] in FORMATS and self.out.suffix[1:] != self.fmt:
                raise ValueError(f"out {self.out} ends in {self.out.suffix}, not .{self.fmt}")


def _json_value(x):
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else None
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
        # The same keys and two more from the report.
        keys = [*cr, "amplitude_floor", "initial_amplitude"]
        cr = _json_dict({key: getattr(report, key) for key in keys}) | {
            "envelope_points": report.envelope.shape[0],
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
    The envelope goes only to the file: the summary is the same with or
    without spec.out. The spec was validated when built, so a run fails only
    with one of RUN_FAILURES (ConvergenceError from the eigensolver,
    PhaseOverflowError, ZeroNormError, NonFiniteOutputError) or an OSError
    from writing; anything else is a program fault.
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


# What a run may raise for a valid spec: a sweep cell's error, a CLI failure.
RUN_FAILURES = (ConvergenceError, PhaseOverflowError, ZeroNormError, NonFiniteOutputError)


def _cell_error(exc: Exception) -> dict:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def check_sweep(base: ScenarioSpec, ratio_tokens, initials, out_dir=None, jobs: int = 1) -> list:
    """The (ratio token, initial) cells of a sweep, in sweep order; raises
    what sweep refuses before any cell runs. That is a ValueError for an
    empty list, for jobs below 1 or, with out_dir, for two cells that would
    write one file (a repeated ratio, say), and a TypeError for a jobs that
    is not an integer. An invalid coupling or state fails only its cells."""
    ratio_tokens, initials = list(ratio_tokens), list(initials)
    if not ratio_tokens or not initials:
        raise ValueError("sweep needs at least one ratio and one initial state")
    if as_integer("jobs", jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = [(rt, init) for rt in ratio_tokens for init in initials]
    if out_dir is not None:
        names = [_cell_file(rt, init, base.fmt) for rt, init in cells]
        if len(set(names)) < len(names):
            clash = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"two sweep cells would both write {clash}")
    return cells


def sweep(base: ScenarioSpec, ratio_tokens, initials, out_dir=None, jobs: int = 1) -> dict:
    """Cross product of ratios and initial states; cells fail independently.

    check_sweep's refusals come first. Each cell's spec is then built on the
    calling thread; one whose coupling or initial state is a ValueError is
    recorded with status "error" and never runs, as is one whose run raises
    one of RUN_FAILURES. Any other exception is a program fault. The cells
    that run do so on the calling thread and up to jobs - 1 more threads,
    never more threads in all than such cells, with BLAS on one thread
    while there are two or more (lapack.one_blas_thread), so any jobs >= 2
    writes the files of jobs = 1 at one BLAS thread; jobs = 1 leaves BLAS
    unpinned, and more BLAS threads may change its files. A fault stops
    new cells from starting; once the running ones end, the fault of the
    earliest cell in sweep order propagates. The cells of one
    coupling share one decomposition, made by the first of them to run,
    freed after the last.

    Returns the combined summary: "base", the spec every cell shares (all
    but k, e_j and initial), and "cells", one entry per (ratio token,
    initial) in sweep order. When out_dir is given it is made before any
    cell runs, each cell writes its own series file there and the combined
    summary lands in out_dir/summary.json.
    """
    cells = check_sweep(base, ratio_tokens, initials, out_dir, jobs)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    # Each cell's entry, and the cells that run: one whose coupling or
    # initial state is a ValueError is complete here and never runs. Each run
    # holds its coupling's slot: a lock, then the decomposition the first of
    # its runs makes. A run drops its hold as it starts, so the decomposition
    # goes with the last run that held it.
    entries, runs, slots = [], [], {}
    for ratio_token, initial in cells:
        entry = {"ratio": str(ratio_token), "initial": initial}
        out = None if out_dir is None else out_dir / _cell_file(ratio_token, initial, base.fmt)
        try:
            k, e_j = realize_ratio(parse_ratio(ratio_token, base.config.n_total))
            config = replace(base.config, k=k, e_j=e_j)
            spec = replace(base, config=config, initial=initial, out=out)
        except ValueError as exc:
            entries.append(entry | _cell_error(exc))
            continue
        runs.append((len(entries), spec, slots.setdefault(config, [threading.Lock()])))
        file = {} if out is None else {"file": out.name}
        entries.append(entry | {"ratio_value": config.ratio} | file)
    del slots

    def run_cell(j):
        (i, spec, slot), runs[j] = runs[j], None
        try:
            with slot[0]:
                if len(slot) == 1:
                    slot.append(eigendecompose(build_hamiltonian(spec.config)))
            entries[i] |= {"status": "ok", "summary": run_scenario(spec, decomposition=slot[1])[1]}
        except RUN_FAILURES as exc:  # keep the other cells running
            entries[i] |= _cell_error(exc)

    faults, claim, order = {}, threading.Lock(), iter(range(len(runs)))

    def work():
        # The next run in sweep order, until none is left or one has faulted.
        while True:
            with claim:
                j = None if faults else next(order, None)
            if j is None:
                return
            try:
                run_cell(j)
            except BaseException as exc:  # raised on the calling thread below
                with claim:
                    faults[j] = exc

    workers = [threading.Thread(target=work) for _ in range(min(jobs, len(runs)) - 1)]
    # One parallelism layer at a time: BLAS runs on one thread while cell
    # threads run, so no gemm's sums depend on what another cell is doing.
    with lapack.one_blas_thread() if workers else nullcontext():
        for worker in workers:
            worker.start()
        work()
        # The calling thread's work ends when no cell is left to hand out:
        # the joins wait only for cells already running.
        for worker in workers:
            worker.join()
    if faults:
        raise faults[min(faults)]

    shared = _scenario_dict(base)
    del shared["k"], shared["e_j"], shared["initial"]
    summary = {"base": shared, "cells": entries}
    if out_dir is not None:
        write_json(out_dir / "summary.json", summary)
    return summary
