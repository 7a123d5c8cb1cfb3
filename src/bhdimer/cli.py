"""Command-line front end: scenarios, figure presets, sweeps, CSV/JSON output.

A scenario fixes the couplings, an initial state, a uniform time grid and
the collapse/revival detector settings, then emits one observable row per
grid time plus a summary (regime classification, detector report, time
averages). A sweep runs the cross product of a ratio list and an
initial-state list, one series file per cell plus a combined summary table.

Bare coupling ratios r = k/ej are realized as k=1, ej=1/r for r <= 1 and
k=r, ej=1 otherwise; presets that need a specific absolute convention
(paper-timescale, milburn-timescale) set k and ej directly. Ratio tokens
may reference the boson number: "1/N^2", "4/N", "N", "N^2", "0.25" are all
valid.

Output is deterministic: rerunning a scenario reproduces the files byte for
byte. CSV carries the series only (12 significant digits, LF endings) with
the summary in a ".summary.json" sidecar; JSON files bundle spec, summary
and series together. Every file is exactly what `f"{v:.11e}"` rows and
`json.dumps(..., indent=2)` would give, but the long lists (series rows and
the collapse/revival envelope) are streamed to the file ROW_CHUNK rows at a
time through one C-level %-format of a repeated row template: "%.11e" is
the routine behind f"{v:.11e}", and "%r" of a finite float is what json
writes for it. A series or envelope value that is not finite is refused
before any file is opened.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import (
    DEFAULT_THETA_C,
    DEFAULT_THETA_R,
    DEFAULT_WINDOW,
    classify,
    collapse_revival_time,
    delta_mu_dominance,
    time_averaged_imbalance,
)
from .model import CouplingConfig, build_hamiltonian
from .observables import ObservableSeries, reduce_blocks
from .spectral import ConvergenceError, GridPropagator, eigendecompose
from .states import parse_state

__all__ = [
    "PRESETS",
    "ScenarioSpec",
    "main",
    "parse_ratio",
    "read_series",
    "realize_ratio",
    "run_scenario",
    "sweep",
]

CSV_HEADER = "t,imbalance,imbalance_scaled,variance,entanglement_bits,norm_error,energy"
CSV_ROW = ",".join(["%.11e"] * len(ObservableSeries.COLUMNS)) + "\n"

# Rows per %-format call of the writer: bounds the text and the float
# objects alive at once, whatever the number of steps.
ROW_CHUNK = 1024

# Stand-ins for the streamed lists in the json.dumps text, with the
# brackets and fields of one list item.
_SERIES = "@series@"
_ENVELOPE = "@envelope@"
_ITEMS = {
    _SERIES: ("{}", [f"{json.dumps(name)}: %r" for name in ObservableSeries.COLUMNS]),
    _ENVELOPE: ("[]", ["%r", "%r"]),
}

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
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if not 0.0 < self.theta_c < 1.0:
            raise ValueError(f"theta_c must be in (0, 1), got {self.theta_c}")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValueError(f"theta_r must be in (0, 1], got {self.theta_r}")
        parse_state(self.initial, self.config.n_total)  # fail early
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))


# ---------------------------------------------------------------------------
# ratio handling

_RATIO_RE = re.compile(
    r"^\s*(?:(?P<num>[0-9.eE+-]+)\s*(?P<op>[/*])\s*)?N\s*(?:\^2|\*\*2)?\s*$"
)
_RATIO_SQUARED_RE = re.compile(r"(\^2|\*\*2)\s*$")


def parse_ratio(token: str, n_total: int) -> float:
    """Ratio token -> float; tokens may use N, e.g. "1/N^2", "4/N", "N"."""
    text = str(token).strip()
    try:
        return float(text)
    except ValueError:
        pass
    match = _RATIO_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse ratio token {token!r}")
    if n_total <= 0:
        raise ValueError(f"ratio token {token!r} needs N > 0, got N={n_total}")
    base = float(n_total)
    if _RATIO_SQUARED_RE.search(text):
        base *= base
    value = float(match.group("num")) if match.group("num") else 1.0
    return value / base if match.group("op") == "/" else value * base


def realize_ratio(ratio: float) -> tuple[float, float]:
    """Couplings (k, ej) realizing a bare ratio: k=1, ej=1/r for r <= 1,
    otherwise k=r, ej=1 (keeps both couplings >= 1, fixing the time scale)."""
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise ValueError(f"ratio must be positive and finite, got {ratio}")
    if ratio <= 1.0:
        return 1.0, 1.0 / ratio
    return ratio, 1.0


# ---------------------------------------------------------------------------
# presets

_MILBURN_TMAX_PER_N = 1.6  # first revival sits near 0.69 N; this holds two


def _initial_menu(n: int) -> list[str]:
    menu = []
    for f in (1.0, 0.9, 0.74, 0.6, 0.5):
        m = round(f * n)
        menu.append(f"fock:{m},{n - m}")
    return menu


@dataclass(frozen=True)
class Preset:
    description: str
    build: Callable[[int], dict]
    n_default: int = 100


def _fig_rabi(n: int) -> dict:
    return dict(k=1.0, e_j=float(n) ** 2, initial=f"fock:{n},0", t_max=30.0, steps=12_000)


def _paper_timescale(n: int) -> dict:
    return dict(k=1.0, e_j=float(n) ** 2, initial=f"fock:{n},0", t_max=30.0)


def _milburn_timescale(n: int) -> dict:
    return dict(
        e_j=1.0,
        k=8.0 / n,
        initial=f"fock:0,{n}",
        t_max=_MILBURN_TMAX_PER_N * n,
    )


def _fig_rabi_fock_sweep(n: int) -> dict:
    return dict(
        ratios=["1/N^2", "1/N", "1", "N", "N^2"],
        initials=[f"fock:{n},0"],
        t_max=30.0,
    )


def _fig_threshold_scan(n: int) -> dict:
    return dict(
        ratios=["1/N", "2/N", "3/N", "4/N", "5/N", "10/N", "50/N", "1"],
        initials=[f"fock:{n},0"],
        t_max=100.0,
    )


def _fig_initials_rabi(n: int) -> dict:
    return dict(ratios=["1/N^2", "1/N"], initials=_initial_menu(n), t_max=30.0)


def _fig_initials_josephson(n: int) -> dict:
    return dict(ratios=["1", "N"], initials=_initial_menu(n), t_max=30.0)


def _fluct(initial: str) -> Callable[[int], dict]:
    def build(n: int) -> dict:
        return dict(
            ratios=["1/N^2", "1/N", "4/N", "10/N", "1"],
            initials=[initial if initial != "fock" else f"fock:{n},0"],
            t_max=50.0,
        )

    return build


PRESETS: dict[str, Preset] = {
    "fig-rabi": Preset(
        "Rabi-side collapse/revival: k=1, ej=N^2, |N,0>, t in [0,30]", _fig_rabi
    ),
    "fig-selftrap": Preset(
        "self-trapped collapse/revival: ej=1, k=8/N, |0,N> (milburn time scale)",
        _milburn_timescale,
    ),
    "fig-rabi-fock-sweep": Preset(
        "ratio sweep 1/N^2 .. N^2 from |N,0>", _fig_rabi_fock_sweep
    ),
    "fig-threshold-scan": Preset(
        "delocalization -> self-trapping scan around 4/N from |N,0>",
        _fig_threshold_scan,
    ),
    "fig-initials-rabi": Preset(
        "initial-state menu at ratios 1/N^2 and 1/N", _fig_initials_rabi
    ),
    "fig-initials-josephson": Preset(
        "initial-state menu at ratios 1 and N", _fig_initials_josephson
    ),
    "fig-fluct-fock": Preset(
        "variance/entanglement evolution from |N,0> across ratios", _fluct("fock")
    ),
    "fig-fluct-cat": Preset(
        "variance/entanglement evolution from the cat state across ratios",
        _fluct("cat"),
    ),
    "fig-fluct-me": Preset(
        "variance/entanglement evolution from the uniform state across ratios",
        _fluct("me"),
    ),
    "paper-timescale": Preset(
        "time-scale convention k=1, ej=N^2 from |N,0>", _paper_timescale
    ),
    "milburn-timescale": Preset(
        "time-scale convention ej=1, k=8/N from |0,N>", _milburn_timescale
    ),
}


# ---------------------------------------------------------------------------
# running

def _json_value(x):
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _scenario_dict(spec: ScenarioSpec) -> dict:
    cfg = spec.config
    return {
        "n_total": cfg.n_total,
        "k": cfg.k,
        "delta_mu": cfg.delta_mu,
        "e_j": cfg.e_j,
        "initial": spec.initial,
        "t_max": spec.t_max,
        "steps": spec.steps,
        "window": spec.window,
        "theta_c": spec.theta_c,
        "theta_r": spec.theta_r,
        "format": spec.fmt,
    }


def _json_dict(d: dict) -> dict:
    return {key: _json_value(value) for key, value in d.items()}


def _summarize(
    spec: ScenarioSpec,
    series: ObservableSeries,
    propagator: GridPropagator,
    include_envelope: bool,
) -> dict:
    cfg = spec.config
    regime = classify(cfg)
    t = series.t

    if len(series) >= 3 * spec.window:
        report = collapse_revival_time(
            t,
            series.imbalance,
            window=spec.window,
            theta_c=spec.theta_c,
            theta_r=spec.theta_r,
            amplitude_floor=0.01 * cfg.n_total,
            n_total=cfg.n_total if cfg.n_total else None,
        )
        cr = {
            "detected": report.detected,
            "t_cr": _json_value(report.t_cr),
            "t_cr_rescaled": _json_value(report.t_cr_rescaled),
            "collapse_time": _json_value(report.collapse_time),
            "reason": report.reason,
            "window": report.window,
            "theta_c": report.theta_c,
            "theta_r": report.theta_r,
            "amplitude_floor": _json_value(report.amplitude_floor),
            "initial_amplitude": _json_value(report.initial_amplitude),
            "envelope_points": int(report.envelope.shape[0]),
        }
        if include_envelope:
            cr["envelope"] = report.envelope.tolist()
    else:
        cr = {
            "detected": False,
            "t_cr": None,
            "t_cr_rescaled": None,
            "collapse_time": None,
            "reason": "series_too_short",
            "window": spec.window,
            "theta_c": spec.theta_c,
            "theta_r": spec.theta_r,
        }

    energy = series.energy
    drift = float(np.max(np.abs(energy - energy[0]))) if len(series) else 0.0
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
            "dropped_weight": propagator.dropped_weight,
        }),
        "delta_mu_dominant_initial": delta_mu_dominance(
            cfg, parse_state(spec.initial, cfg.n_total)
        ),
    }


def run_scenario(spec: ScenarioSpec) -> tuple[ObservableSeries, dict]:
    """Run one scenario; write files when spec.out is set.

    An empty system (N = 0) has no dynamics, so its series collapses to the
    single row t = 0 with every observable equal to zero.

    The trajectory is propagated and reduced to observables block by block
    (GridPropagator, reduce_blocks), so memory does not grow with the number
    of steps beyond the output columns. Raises ValueError when the phases
    max|lambda| * t_max overflow.
    """
    cfg = spec.config
    h = build_hamiltonian(cfg)
    psi0 = parse_state(spec.initial, cfg.n_total)
    if cfg.n_total == 0:
        t = np.array([0.0])
    else:
        t = np.linspace(0.0, spec.t_max, spec.steps)
    propagator = GridPropagator(eigendecompose(h), psi0)
    # np.linspace's own step: its t_j is j * dt except the last, which is t_max.
    dt = spec.t_max / (spec.steps - 1)
    series = reduce_blocks(propagator.blocks(dt, t.size), t, h)

    summary = _summarize(spec, series, propagator, include_envelope=spec.out is not None)
    if spec.out is not None:
        _write_output(spec, series, summary)
    return series, summary


def _write_rows(f, rows: np.ndarray, template: str, skip: int) -> None:
    """Write template % row for every row of `rows`, ROW_CHUNK rows per
    %-format call, leaving out the first `skip` characters."""
    for start in range(0, rows.shape[0], ROW_CHUNK):
        chunk = rows[start : start + ROW_CHUNK]
        text = (template * chunk.shape[0]) % tuple(chunk.ravel().tolist())
        f.write(text[skip:] if start == 0 else text)


def _json_parts(payload: dict, lists: dict) -> list:
    """json.dumps(payload, indent=2) + "\n" as writer parts.

    `lists` maps each placeholder string in the payload, in text order, to
    the rows of the non-empty list it stands for. Each list becomes a
    (rows, template, skip) part whose template copies indent=2's layout of
    one item at the placeholder's depth, led by its "," separator (skipped
    for the first item).
    """
    text = json.dumps(payload, indent=2) + "\n"
    parts = []
    for name in lists:
        head, text = text.split(json.dumps(name), 1)
        line = head[head.rfind("\n") + 1 :]
        indent = len(line) - len(line.lstrip(" "))
        (open_, close), fields = _ITEMS[name]
        item = "\n" + " " * (indent + 2)
        field = "\n" + " " * (indent + 4)
        template = "," + item + open_ + ",".join(field + f for f in fields) + item + close
        parts += [head + "[", (lists[name], template, 1), "\n" + " " * indent + "]"]
    parts.append(text)
    return parts


def _write_parts(path: Path, parts) -> None:
    """Write text parts and streamed (rows, template, skip) parts in order."""
    with open(path, "w", newline="\n") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part)
            else:
                _write_rows(f, *part)


def _write_output(spec: ScenarioSpec, series: ObservableSeries, summary: dict) -> None:
    out = spec.out
    rows = np.column_stack([getattr(series, name) for name in ObservableSeries.COLUMNS])
    cr = summary["collapse_revival"]
    lists = {}
    if "envelope" in cr:
        lists[_ENVELOPE] = np.array(cr["envelope"], dtype=np.float64).reshape(-1, 2)
        summary = dict(summary, collapse_revival=dict(cr, envelope=_ENVELOPE))
    if not all(np.isfinite(a).all() for a in (rows, *lists.values())):
        raise ValueError(f"{out}: the series or the envelope holds a non-finite value")
    payload = {"spec": _scenario_dict(spec), "summary": summary}
    out.parent.mkdir(parents=True, exist_ok=True)
    if spec.fmt == "csv":
        _write_parts(out, [CSV_HEADER + "\n", (rows, CSV_ROW, 0)])
        out = out.with_name(out.stem + ".summary.json")
    else:
        payload["series"] = _SERIES
        lists[_SERIES] = rows
    _write_parts(out, _json_parts(payload, lists))


def read_series(path) -> ObservableSeries:
    """Read back a series file written by this module (CSV or JSON).

    A JSON file must have the indent=2 layout the writer produces, with
    "series" as its last top-level member: only that list is decoded, not
    the spec and summary before it. Any other layout is a ValueError.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return _read_json_series(path, text)
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected CSV header")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2).reshape(-1, 7)
    return ObservableSeries(*(data[:, i] for i in range(7)))


# In an indent=2 file only a top-level key follows a raw newline and exactly
# two spaces, and no JSON string holds a raw newline.
_SERIES_MEMBER = '\n  "series": '


def _read_json_series(path, text: str) -> ObservableSeries:
    start = text.rfind(_SERIES_MEMBER)
    if start < 0:
        raise ValueError(f"{path} has no top-level series in the indent=2 layout")
    try:
        rows, end = json.JSONDecoder().raw_decode(text, start + len(_SERIES_MEMBER))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: the series is not valid JSON: {exc}") from exc
    if text[end:] != "\n}\n":
        raise ValueError(f"{path}: the series is not the last member of the file")
    try:
        cols = {
            name: np.array([row[name] for row in rows], dtype=np.float64)
            for name in ObservableSeries.COLUMNS
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: a series row is not an object holding every column ({exc!r})"
        ) from exc
    return ObservableSeries(**cols)


# ---------------------------------------------------------------------------
# sweeps

def _slug(text: str) -> str:
    return (
        text.replace("/", "over")
        .replace("*", "x")
        .replace("^", "")
        .replace(":", "-")
        .replace(",", "-")
        .replace(" ", "")
    )


def _sweep_cell(base: ScenarioSpec, ratio_token: str, initial: str, out_dir: Path | None) -> ScenarioSpec:
    n = base.config.n_total
    ratio = parse_ratio(ratio_token, n)
    k, e_j = realize_ratio(ratio)
    cfg = CouplingConfig(n, k=k, delta_mu=base.config.delta_mu, e_j=e_j)
    out = None
    if out_dir is not None:
        out = Path(out_dir) / f"r{_slug(str(ratio_token))}__{_slug(initial)}.{base.fmt}"
    return replace(base, config=cfg, initial=initial, out=out)


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
    threads.

    Returns the combined summary, keyed by (ratio token, initial). When
    out_dir is given each cell writes its own series file there and the
    combined summary lands in out_dir/summary.json.
    """
    ratio_tokens = list(ratio_tokens)
    initials = list(initials)
    if not ratio_tokens or not initials:
        raise ValueError("sweep needs at least one ratio and one initial state")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir) if out_dir is not None else None

    cells = [(rt, init) for rt in ratio_tokens for init in initials]

    def run_cell(cell):
        ratio_token, initial = cell
        entry = {"ratio": str(ratio_token), "initial": initial}
        try:
            spec = _sweep_cell(base, ratio_token, initial, out_dir)
            entry["ratio_value"] = spec.config.ratio
            if spec.out is not None:
                entry["file"] = spec.out.name
            _, cell_summary = run_scenario(spec)
            entry["status"] = "ok"
            # Cell files carry their own envelopes; keep the table compact.
            entry["summary"] = _strip_envelope(cell_summary)
        except (ValueError, ConvergenceError) as exc:  # keep the other cells running
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(run_cell, cells))
    else:
        entries = [run_cell(cell) for cell in cells]

    summary = {"base": _scenario_dict(replace(base, out=None)), "cells": entries}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_parts(out_dir / "summary.json", _json_parts(summary, {}))
    return summary


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bhdimer",
        description=(
            "Exact-diagonalization dynamics of two Josephson-coupled "
            "Bose-Einstein condensates (two-mode Bose-Hubbard dimer)."
        ),
    )
    p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
    p.add_argument(
        "--list-presets", action="store_true", help="list presets and exit"
    )
    p.add_argument("--n", type=int, help="total boson number N")
    p.add_argument("--k", type=float, help="scattering strength")
    p.add_argument("--ej", type=float, help="tunneling strength")
    p.add_argument("--dmu", type=float, help="external potential bias (default 0)")
    p.add_argument(
        "--ratio", help="coupling ratio k/ej, realized as k=1,ej=1/r (r<=1) or k=r,ej=1"
    )
    p.add_argument(
        "--ratios", help="comma-separated ratio list; triggers a sweep"
    )
    p.add_argument(
        "--initial", help='initial state: "fock:m,n", "cat" or "me" (default fock:N,0)'
    )
    p.add_argument(
        "--initials",
        help="semicolon-separated initial-state list; triggers a sweep",
    )
    p.add_argument("--t-max", type=float, help="end of the time grid")
    p.add_argument("--steps", type=int, help=f"grid points (default {DEFAULT_STEPS})")
    p.add_argument(
        "--window", type=int, help=f"envelope window, odd (default {DEFAULT_WINDOW})"
    )
    p.add_argument(
        "--theta-c", type=float, help=f"collapse threshold (default {DEFAULT_THETA_C})"
    )
    p.add_argument(
        "--theta-r", type=float, help=f"revival threshold (default {DEFAULT_THETA_R})"
    )
    p.add_argument("--out", type=Path, help="output file (sweeps: output directory)")
    p.add_argument("--format", choices=("csv", "json"), help="series format (default csv)")
    p.add_argument("--jobs", type=int, default=1, help="concurrent sweep cells")
    return p


def _print_presets() -> None:
    width = max(map(len, PRESETS))
    for name in sorted(PRESETS):
        print(f"{name:<{width}}  {PRESETS[name].description}")


def _strip_envelope(summary: dict) -> dict:
    cr = summary.get("collapse_revival")
    if isinstance(cr, dict) and "envelope" in cr:
        cr = {k: v for k, v in cr.items() if k != "envelope"}
        summary = dict(summary, collapse_revival=cr)
    return summary


def _print_sweep_table(summary: dict) -> None:
    for cell in summary["cells"]:
        head = f"ratio={cell['ratio']}  initial={cell['initial']}"
        if cell["status"] != "ok":
            print(f"{head}  ERROR: {cell['error']}")
            continue
        s = cell["summary"]
        cr = s["collapse_revival"]
        t_cr = "-" if cr["t_cr"] is None else f"{cr['t_cr']:.4f}"
        print(
            f"{head}  regime={s['regime']['regime']}"
            f"  phase={s['regime']['phase']}"
            f"  mean_imbalance_scaled={s['time_averages']['imbalance_scaled']:+.4f}"
            f"  t_cr={t_cr}"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        _print_presets()
        return 0

    try:
        preset = PRESETS[args.preset] if args.preset else None
        n = args.n if args.n is not None else (preset.n_default if preset else 100)
        defaults = preset.build(n) if preset else {}

        if args.ratio is not None and (args.k is not None or args.ej is not None):
            parser.error("--ratio conflicts with --k/--ej")

        ratios = None
        if args.ratios is not None:
            ratios = [tok.strip() for tok in args.ratios.split(",") if tok.strip()]
        elif defaults.get("ratios") and args.ratio is None and args.k is None:
            ratios = defaults["ratios"]

        initials = None
        if args.initials is not None:
            initials = [tok.strip() for tok in args.initials.split(";") if tok.strip()]
        elif defaults.get("initials") and args.initial is None:
            initials = defaults["initials"]

        dmu = args.dmu if args.dmu is not None else defaults.get("delta_mu", 0.0)
        t_max = args.t_max if args.t_max is not None else defaults.get("t_max", 30.0)
        steps = args.steps if args.steps is not None else defaults.get("steps", DEFAULT_STEPS)
        window = args.window if args.window is not None else DEFAULT_WINDOW
        theta_c = args.theta_c if args.theta_c is not None else DEFAULT_THETA_C
        theta_r = args.theta_r if args.theta_r is not None else DEFAULT_THETA_R
        fmt = args.format or "csv"
        initial = args.initial or defaults.get("initial") or f"fock:{n},0"

        sweep_mode = ratios is not None or initials is not None
        if sweep_mode:
            base_cfg = CouplingConfig(n, k=0.0, delta_mu=dmu, e_j=1.0)
            base = ScenarioSpec(
                config=base_cfg,
                initial=f"fock:{n},0",
                t_max=t_max,
                steps=steps,
                window=window,
                theta_c=theta_c,
                theta_r=theta_r,
                out=None,
                fmt=fmt,
            )
            if ratios is None:
                if args.ratio is None:
                    parser.error("a sweep needs --ratios (or a sweep preset)")
                ratios = [args.ratio]
            if initials is None:
                initials = [initial]
            summary = sweep(base, ratios, initials, out_dir=args.out, jobs=args.jobs)
            _print_sweep_table(summary)
            failed = [c for c in summary["cells"] if c["status"] != "ok"]
            return 1 if failed else 0

        if args.k is not None or args.ej is not None:
            if args.k is None or args.ej is None:
                parser.error("--k and --ej must be given together")
            k, e_j = args.k, args.ej
        elif args.ratio is not None:
            k, e_j = realize_ratio(parse_ratio(args.ratio, n))
        elif "k" in defaults and "e_j" in defaults:
            k, e_j = defaults["k"], defaults["e_j"]
        else:
            parser.error("specify couplings via --ratio, --k/--ej or a preset")

        spec = ScenarioSpec(
            config=CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j),
            initial=initial,
            t_max=t_max,
            steps=steps,
            window=window,
            theta_c=theta_c,
            theta_r=theta_r,
            out=args.out,
            fmt=fmt,
        )
        _, summary = run_scenario(spec)
        print(json.dumps(_strip_envelope(summary), indent=2))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
