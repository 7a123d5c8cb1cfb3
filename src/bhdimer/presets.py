"""Figure presets and coupling-ratio tokens.

A preset maps the boson number N to the defaults of one experiment: one
scenario (k, e_j, initial, t_max, maybe steps) or a sweep (ratios, initials,
t_max).

Bare coupling ratios r = k/ej are realized as k=1, ej=1/r for r <= 1 and
k=r, ej=1 otherwise; presets that need a specific absolute convention
(paper-timescale, milburn-timescale) set k and ej directly. Ratio tokens
may reference the boson number: "1/N^2", "4/N", "N", "N^2", "0.25" are all
valid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

__all__ = ["DEFAULT_N", "PRESETS", "Preset", "default_initial", "parse_ratio", "realize_ratio"]

DEFAULT_N = 100


def default_initial(n: int) -> str:
    """The initial state of a run or preset that names none: |N,0>."""
    return f"fock:{n},0"


_RATIO_RE = re.compile(
    r"^\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?P<op>[/*])\s*)?"
    r"N\s*(?P<squared>\^2|\*\*2)?\s*$"
)


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
    if match.group("squared"):
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


_MILBURN_TMAX_PER_N = 1.6  # first revival sits near 0.69 N; this holds two


def _initial_menu(n: int) -> list[str]:
    menu = []
    for f in (1.0, 0.9, 0.74, 0.6, 0.5):
        m = round(f * n)
        menu.append(f"fock:{m},{n - m}")
    # At small N several fractions round to the same state; run it once.
    return list(dict.fromkeys(menu))


@dataclass(frozen=True)
class Preset:
    description: str
    build: Callable[[int], dict]


def _paper_timescale(n: int) -> dict:
    return dict(k=1.0, e_j=float(n) ** 2, initial=default_initial(n), t_max=30.0)


def _fig_rabi(n: int) -> dict:
    return dict(_paper_timescale(n), steps=12_000)


def _milburn_timescale(n: int) -> dict:
    if n < 1:
        raise ValueError(f"the time scale k=8/N needs N >= 1, got N={n}")
    return dict(
        e_j=1.0,
        k=8.0 / n,
        initial=f"fock:0,{n}",
        t_max=_MILBURN_TMAX_PER_N * n,
    )


def _sweep(ratios: list[str], t_max: float, initials=None) -> Callable[[int], dict]:
    """A sweep preset; initials(n) lists its initial states, |N,0> if None."""

    def build(n: int) -> dict:
        states = initials(n) if initials else [default_initial(n)]
        return dict(ratios=list(ratios), initials=states, t_max=t_max)

    return build


_FLUCT_RATIOS = ["1/N^2", "1/N", "4/N", "10/N", "1"]


PRESETS: dict[str, Preset] = {
    "fig-rabi": Preset(
        "Rabi-side collapse/revival: k=1, ej=N^2, |N,0>, t in [0,30]", _fig_rabi
    ),
    "fig-selftrap": Preset(
        "self-trapped collapse/revival: ej=1, k=8/N, |0,N> (milburn time scale)",
        _milburn_timescale,
    ),
    "fig-rabi-fock-sweep": Preset(
        "ratio sweep 1/N^2 .. N^2 from |N,0>",
        _sweep(["1/N^2", "1/N", "1", "N", "N^2"], 30.0),
    ),
    "fig-threshold-scan": Preset(
        "delocalization -> self-trapping scan around 4/N from |N,0>",
        _sweep(["1/N", "2/N", "3/N", "4/N", "5/N", "10/N", "50/N", "1"], 100.0),
    ),
    "fig-initials-rabi": Preset(
        "initial-state menu at ratios 1/N^2 and 1/N",
        _sweep(["1/N^2", "1/N"], 30.0, _initial_menu),
    ),
    "fig-initials-josephson": Preset(
        "initial-state menu at ratios 1 and N", _sweep(["1", "N"], 30.0, _initial_menu)
    ),
    "fig-fluct-fock": Preset(
        "variance/entanglement evolution from |N,0> across ratios",
        _sweep(_FLUCT_RATIOS, 50.0),
    ),
    "fig-fluct-cat": Preset(
        "variance/entanglement evolution from the cat state across ratios",
        _sweep(_FLUCT_RATIOS, 50.0, lambda n: ["cat"]),
    ),
    "fig-fluct-me": Preset(
        "variance/entanglement evolution from the uniform state across ratios",
        _sweep(_FLUCT_RATIOS, 50.0, lambda n: ["me"]),
    ),
    "paper-timescale": Preset(
        "time-scale convention k=1, ej=N^2 from |N,0>", _paper_timescale
    ),
    "milburn-timescale": Preset(
        "time-scale convention ej=1, k=8/N from |0,N>", _milburn_timescale
    ),
}
