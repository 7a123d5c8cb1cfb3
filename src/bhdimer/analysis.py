"""Coupling-regime classification and trajectory analysis.

The coupling ratio r = k/ej organizes the dynamics twice over:

* a sharp threshold at r = 4/N separates delocalized motion (time-averaged
  imbalance zero) from self-trapping (imbalance pinned near its initial
  value);
* three qualitative bands, r << 1/N (Rabi), 1/N << r << N (Josephson) and
  r >> N (Fock). The "<<" are read as a factor of ten, with the gaps
  reported as crossover bands; the self-trapping threshold itself sits in
  the Rabi-Josephson crossover.

Collapse and revival of the imbalance oscillation is detected from a
sliding-window amplitude envelope. The detector has three knobs, documented
on collapse_revival_time and echoed into every report: the window length and
the two thresholds theta_c (collapse) and theta_r (revival), both relative
to the initial amplitude, so the detector is invariant under positive
rescaling of the signal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import CouplingConfig
from .observables import expectation_imbalance
from .spectral import StateVector

__all__ = [
    "CollapseRevivalReport",
    "Phase",
    "Regime",
    "RegimeReport",
    "classify",
    "collapse_revival_time",
    "delta_mu_dominance",
    "envelope",
    "time_averaged_imbalance",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_WINDOW = 201
DEFAULT_THETA_C = 0.1
DEFAULT_THETA_R = 0.5


class Regime(enum.Enum):
    RABI = "rabi"
    RABI_JOSEPHSON_CROSSOVER = "rabi_josephson_crossover"
    JOSEPHSON = "josephson"
    JOSEPHSON_FOCK_CROSSOVER = "josephson_fock_crossover"
    FOCK = "fock"

    def __str__(self) -> str:
        return self.value


class Phase(enum.Enum):
    DELOCALIZED = "delocalized"
    THRESHOLD = "threshold"
    SELF_TRAPPED = "self_trapped"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegimeReport:
    """Where a configuration sits in the coupling-ratio taxonomy."""

    ratio: float
    regime: Regime
    phase: Phase


def classify(config: CouplingConfig) -> RegimeReport:
    """Classify a configuration by its coupling ratio k/ej.

    With the tunneling switched off (ej = 0) the ratio is reported as +inf
    and the system is trivially in the Fock regime and self-trapped.
    """
    n = config.n_total
    if config.e_j == 0.0:
        return RegimeReport(math.inf, Regime.FOCK, Phase.SELF_TRAPPED)
    r = config.k / config.e_j

    inv_n = 1.0 / n if n > 0 else math.inf
    if r < inv_n / 10.0:
        regime = Regime.RABI
    elif r < 10.0 * inv_n:
        regime = Regime.RABI_JOSEPHSON_CROSSOVER
    elif r <= n / 10.0:
        regime = Regime.JOSEPHSON
    elif r <= 10.0 * n:
        regime = Regime.JOSEPHSON_FOCK_CROSSOVER
    else:
        regime = Regime.FOCK

    threshold = 4.0 / n if n > 0 else math.inf
    if math.isfinite(threshold) and abs(r - threshold) <= 1e-12 * max(
        abs(r), threshold
    ):
        phase = Phase.THRESHOLD
    elif r < threshold:
        phase = Phase.DELOCALIZED
    else:
        phase = Phase.SELF_TRAPPED
    return RegimeReport(r, regime, phase)


def _check_uniform_grid(t: np.ndarray) -> float:
    dt = np.diff(t)
    if dt.size == 0:
        raise ValueError("series too short")
    step = float(dt[0])
    if step <= 0.0 or np.any(np.abs(dt - step) > 1e-6 * abs(step)):
        raise ValueError("series must be uniformly sampled with a positive step")
    return step


def envelope(t, values, window: int = DEFAULT_WINDOW):
    """Sliding-window oscillation amplitude of a uniformly sampled series.

    The series is first detrended by subtracting its running mean over
    `window` samples (this removes the nonzero offset of self-trapped
    trajectories), then the amplitude at each remaining window center is
    (max - min)/2 of the detrended values across the window. Both passes
    only keep full windows, so the output covers t[window-1] through
    t[len(t)-window] and has len(t) - 2*(window-1) points.

    window must be odd and >= 3, and the series at least 3 windows long.
    Returns (centers, amplitudes).
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or x.shape != t.shape:
        raise ValueError("t and values must be 1-d arrays of equal length")
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if t.size < 3 * window:
        raise ValueError(
            f"series too short: {t.size} samples for window {window} "
            f"(need at least {3 * window})"
        )
    _check_uniform_grid(t)

    half = window // 2
    running_mean = sliding_window_view(x, window).mean(axis=1)
    detrended = x[half : x.size - half] - running_mean
    windows = sliding_window_view(detrended, window)
    amplitude = 0.5 * (windows.max(axis=1) - windows.min(axis=1))
    centers = t[2 * half : t.size - 2 * half]
    return centers, amplitude


def _undetected(reason, t_env, amp, window, theta_c, theta_r, floor, a0, collapse_time=None):
    return CollapseRevivalReport(
        detected=False,
        t_cr=None,
        t_cr_rescaled=None,
        collapse_time=collapse_time,
        envelope=np.column_stack((t_env, amp)),
        reason=reason,
        window=window,
        theta_c=theta_c,
        theta_r=theta_r,
        amplitude_floor=floor,
        initial_amplitude=a0,
    )


@dataclass(frozen=True, eq=False)
class CollapseRevivalReport:
    """Outcome of the collapse/revival detector plus its configuration.

    t_cr is the time of the first revival (first local envelope maximum
    after the collapse that reaches theta_r of the initial amplitude);
    t_cr_rescaled is 8 t_cr / N when the boson number is known. reason is
    None when detected, otherwise one of "below_floor", "no_collapse",
    "no_revival".
    """

    detected: bool
    t_cr: float | None
    t_cr_rescaled: float | None
    collapse_time: float | None
    envelope: np.ndarray
    reason: str | None
    window: int
    theta_c: float
    theta_r: float
    amplitude_floor: float
    initial_amplitude: float


def collapse_revival_time(
    t,
    values,
    window: int = DEFAULT_WINDOW,
    theta_c: float = DEFAULT_THETA_C,
    theta_r: float = DEFAULT_THETA_R,
    amplitude_floor: float = 0.0,
    n_total: int | None = None,
) -> CollapseRevivalReport:
    """Detect the first collapse and revival of an oscillating series.

    The signal's initial amplitude A0 is the first envelope sample. The
    collapse time is the first envelope drop below theta_c * A0; the revival
    time t_cr is the first local envelope maximum after the collapse whose
    amplitude reaches theta_r * A0, where "local maximum" is judged over a
    window-sized neighborhood of the envelope. A0 must exceed
    amplitude_floor (callers tracking the particle imbalance pass 0.01 * N)
    or the series is reported as carrying no usable oscillation.

    Both thresholds scale with A0, so positive rescaling of the values
    leaves the report unchanged up to plateau tie-breaking within one
    envelope window (bit-exact for power-of-two scales).
    """
    if not 0.0 < theta_c < 1.0:
        raise ValueError(f"theta_c must be in (0, 1), got {theta_c}")
    if not 0.0 < theta_r <= 1.0:
        raise ValueError(f"theta_r must be in (0, 1], got {theta_r}")
    t_env, amp = envelope(t, values, window)

    a0 = float(amp[0])
    args = (t_env, amp, window, theta_c, theta_r, amplitude_floor, a0)
    if a0 <= amplitude_floor or a0 <= 0.0:
        return _undetected("below_floor", *args)

    below = np.nonzero(amp < theta_c * a0)[0]
    if below.size == 0:
        return _undetected("no_collapse", *args)
    collapse_idx = int(below[0])
    collapse_time = float(t_env[collapse_idx])

    # A local maximum is judged at the envelope's own resolution: the point
    # must attain the maximum of a centered window-sized neighborhood, which
    # keeps sample-level staircase wiggles on a rising flank from counting.
    half = window // 2
    rolling_max = sliding_window_view(amp, window).max(axis=1)
    centers = np.arange(half, amp.size - half)
    peaks = (
        (amp[centers] >= rolling_max)
        & (amp[centers] >= theta_r * a0)
        & (centers > collapse_idx)
    )
    hits = np.nonzero(peaks)[0]
    if hits.size == 0:
        return _undetected("no_revival", *args, collapse_time=collapse_time)
    revival_idx = int(centers[hits[0]])

    t_cr = float(t_env[revival_idx])
    return CollapseRevivalReport(
        detected=True,
        t_cr=t_cr,
        t_cr_rescaled=8.0 * t_cr / n_total if n_total else None,
        collapse_time=collapse_time,
        envelope=np.column_stack((t_env, amp)),
        reason=None,
        window=window,
        theta_c=theta_c,
        theta_r=theta_r,
        amplitude_floor=amplitude_floor,
        initial_amplitude=a0,
    )


def time_averaged_imbalance(t, values) -> float:
    """Trapezoid-rule time average of a series over its grid."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or x.shape != t.shape or t.size == 0:
        raise ValueError("t and values must be nonempty 1-d arrays of equal length")
    if t.size == 1:
        return float(x[0])
    span = float(t[-1] - t[0])
    if span <= 0.0:
        raise ValueError("time grid must span a positive interval")
    return float(_trapezoid(x, t)) / span


def delta_mu_dominance(config: CouplingConfig, state: StateVector) -> bool:
    """Whether the external potential dominates: dmu > (k/2) <N1 - N2>."""
    return config.delta_mu > 0.5 * config.k * expectation_imbalance(state)
