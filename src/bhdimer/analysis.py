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
sliding-window amplitude envelope by collapse_revival_time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import CouplingConfig, as_integer
from .observables import expectation_imbalance
from .spectral import StateVector

__all__ = [
    "CollapseRevivalReport",
    "Phase",
    "Regime",
    "RegimeReport",
    "check_detector",
    "classify",
    "collapse_revival_time",
    "delta_mu_dominance",
    "envelope",
    "min_series_length",
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


class Phase(enum.Enum):
    DELOCALIZED = "delocalized"
    THRESHOLD = "threshold"
    SELF_TRAPPED = "self_trapped"


@dataclass(frozen=True)
class RegimeReport:
    """Where a configuration sits in the coupling-ratio taxonomy."""

    ratio: float
    regime: Regime
    phase: Phase


def classify(config: CouplingConfig) -> RegimeReport:
    """Classify a configuration by |k/ej|, the ratio reported: flipping ej
    flips the sign of every other Fock coefficient, and no observable.

    With the tunneling switched off the ratio is +inf (CouplingConfig.ratio)
    and the system is trivially in the Fock regime and self-trapped.
    """
    n, r = config.n_total, abs(config.ratio)
    if r == math.inf:
        return RegimeReport(r, Regime.FOCK, Phase.SELF_TRAPPED)

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


def check_detector(window: int, theta_c=DEFAULT_THETA_C, theta_r=DEFAULT_THETA_R) -> None:
    """Refuse detector settings outside their ranges with a ValueError, and a
    window that is not an integer with a TypeError."""
    if as_integer("window", window) < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if not 0.0 < theta_c < 1.0:
        raise ValueError(f"theta_c must be in (0, 1), got {theta_c}")
    if not 0.0 < theta_r <= 1.0:
        raise ValueError(f"theta_r must be in (0, 1], got {theta_r}")


def min_series_length(window: int) -> int:
    """The fewest samples envelope takes at this window: three windows."""
    return 3 * window


def _running(reduce: np.ufunc, x: np.ndarray, window: int) -> np.ndarray:
    """np.maximum, np.minimum or np.add over each full window of x, as reduced
    from sliding_window_view(x, window), in O(x.size) (van Herk/Gil-Werman): a
    window is the suffix of one window-sized block and the prefix of the next.
    A window that starts a block is that block's suffix alone: the sum takes
    0 for the prefix there, not the block a second time."""
    blocks = np.pad(x, (0, -x.size % window)).reshape(-1, window)
    prefix = reduce.accumulate(blocks, axis=1)
    suffix = reduce.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    if reduce is np.add:
        prefix[:, -1] = 0.0
    return reduce(suffix[: x.size - window + 1], prefix.ravel()[window - 1 : x.size])


def envelope(t, values, window: int = DEFAULT_WINDOW):
    """Sliding-window oscillation amplitude of a uniformly sampled series.

    The series is first detrended by subtracting its running mean over
    `window` samples (this removes the nonzero offset of self-trapped
    trajectories), then the amplitude at each remaining window center is
    (max - min)/2 of the detrended values across the window. Both passes
    only keep full windows, so the output covers t[window-1] through
    t[len(t)-window] and has len(t) - 2*(window-1) points.

    window must be odd and >= 3, and the series at least
    min_series_length(window) samples long.
    Returns (centers, amplitudes).
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or x.shape != t.shape:
        raise ValueError("t and values must be 1-d arrays of equal length")
    check_detector(window)
    need = min_series_length(window)
    if t.size < need:
        raise ValueError(
            f"series too short: {t.size} samples for window {window} (need at least {need})"
        )
    dt = np.diff(t)
    if dt[0] <= 0.0 or np.any(np.abs(dt - dt[0]) > 1e-6 * dt[0]):
        raise ValueError("series must be uniformly sampled with a positive step")

    half = window // 2
    # Sums of x - x[0]: a constant series detrends to exact zeros whichever
    # order the window sums take, and an offset adds nothing to their round-off.
    x = x - x[0]
    running_mean = _running(np.add, x, window) / window
    detrended = x[half : x.size - half] - running_mean
    spread = _running(np.maximum, detrended, window) - _running(np.minimum, detrended, window)
    return t[2 * half : t.size - 2 * half], 0.5 * spread


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

    Every report carries the envelope, a (points, 2) array of (center time,
    amplitude) rows; run_scenario passes it to the writer, not the summary.
    """
    check_detector(window, theta_c, theta_r)
    t_env, amp = envelope(t, values, window)

    a0 = float(amp[0])
    collapse_time = t_cr = reason = None
    below = np.nonzero(amp < theta_c * a0)[0]
    if a0 <= amplitude_floor or a0 <= 0.0:
        reason = "below_floor"
    elif below.size == 0:
        reason = "no_collapse"
    else:
        collapse_idx = int(below[0])
        collapse_time = float(t_env[collapse_idx])

        # A local maximum is judged at the envelope's own resolution: the point
        # must attain the maximum of a centered window-sized neighborhood, which
        # keeps sample-level staircase wiggles on a rising flank from counting.
        half = window // 2
        centers = np.arange(half, amp.size - half)
        peaks = (amp[centers] >= _running(np.maximum, amp, window)) & (centers > collapse_idx)
        hits = np.nonzero(peaks & (amp[centers] >= theta_r * a0))[0]
        if hits.size == 0:
            reason = "no_revival"
        else:
            t_cr = float(t_env[centers[hits[0]]])

    return CollapseRevivalReport(
        detected=reason is None,
        t_cr=t_cr,
        t_cr_rescaled=8.0 * t_cr / n_total if t_cr is not None and n_total else None,
        collapse_time=collapse_time,
        envelope=np.column_stack((t_env, amp)),
        reason=reason,
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
