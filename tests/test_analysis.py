import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from bhdimer.analysis import (
    _running,
    Phase,
    Regime,
    classify,
    collapse_revival_time,
    delta_mu_dominance,
    envelope,
    time_averaged_imbalance,
)
from bhdimer.model import CouplingConfig
from bhdimer.states import fock


def config_for_ratio(n, ratio, dmu=0.0):
    if ratio <= 1.0:
        return CouplingConfig(n, k=1.0, delta_mu=dmu, e_j=1.0 / ratio)
    return CouplingConfig(n, k=ratio, delta_mu=dmu, e_j=1.0)


class TestClassify:
    def test_deep_rabi(self):
        report = classify(config_for_ratio(100, 1e-4))
        assert report.regime is Regime.RABI
        assert report.phase is Phase.DELOCALIZED

    def test_threshold(self):
        report = classify(config_for_ratio(100, 4.0 / 100.0))
        assert report.phase is Phase.THRESHOLD
        assert report.regime is Regime.RABI_JOSEPHSON_CROSSOVER

    def test_deep_fock(self):
        report = classify(config_for_ratio(100, 1e4))
        assert report.regime is Regime.FOCK
        assert report.phase is Phase.SELF_TRAPPED

    def test_josephson_band(self):
        report = classify(config_for_ratio(100, 1.0))
        assert report.regime is Regime.JOSEPHSON
        assert report.phase is Phase.SELF_TRAPPED

    def test_no_tunneling(self):
        # A ratio that overflows to +inf counts as no tunneling, not as the threshold.
        for e_j in (0.0, 1e-10):
            report = classify(CouplingConfig(50, k=1e308 if e_j else 1.0, e_j=e_j))
            assert report.ratio == math.inf
            assert report.regime is Regime.FOCK
            assert report.phase is Phase.SELF_TRAPPED

    def test_phase_boundaries_strict(self):
        threshold = 4.0 / 100.0
        assert classify(CouplingConfig(100, k=threshold * (1 - 1e-9), e_j=1.0)).phase is Phase.DELOCALIZED
        assert classify(CouplingConfig(100, k=threshold * (1 + 1e-9), e_j=1.0)).phase is Phase.SELF_TRAPPED
        assert classify(CouplingConfig(100, k=threshold, e_j=1.0)).phase is Phase.THRESHOLD

    @given(
        n=st.integers(1, 500),
        r1=st.floats(1e-8, 1e8),
        r2=st.floats(1e-8, 1e8),
    )
    def test_monotone_in_ratio(self, n, r1, r2):
        lo, hi = sorted((r1, r2))
        a = classify(config_for_ratio(n, lo))
        b = classify(config_for_ratio(n, hi))
        order = list(Regime)
        assert order.index(a.regime) <= order.index(b.regime)


class TestRunningExtreme:
    """The O(n) running max/min against sliding_window_view, bit for bit."""

    @staticmethod
    def assert_matches(x, window):
        x = np.asarray(x, dtype=np.float64)
        windows = sliding_window_view(x, window)
        assert _running(np.maximum, x, window).tobytes() == windows.max(axis=1).tobytes()
        assert _running(np.minimum, x, window).tobytes() == windows.min(axis=1).tobytes()

    @pytest.mark.parametrize("size", [1000, 1001, 1003, 1005])
    @pytest.mark.parametrize("window", [3, 5, 21, 335])
    def test_random_data(self, size, window):
        x = np.random.default_rng(size * window).normal(size=size)
        self.assert_matches(x, window)

    def test_plateaus_and_ties(self):
        rng = np.random.default_rng(3)
        x = np.repeat(rng.integers(-3, 4, 120).astype(np.float64), rng.integers(1, 9, 120))
        for window in (3, 7, 11, 51):
            self.assert_matches(x, window)
        self.assert_matches(np.full(40, 2.5), 5)

    def test_window_3(self):
        self.assert_matches([1.0, 3.0, 2.0, 5.0, 4.0, 4.0, 0.0, -1.0, 7.0, 6.0], 3)

    @pytest.mark.parametrize("size,window", [(31, 5), (32, 5), (34, 3), (1000, 7)])
    def test_length_not_a_multiple_of_the_window(self, size, window):
        self.assert_matches(np.sin(np.arange(size) * 0.7), window)

    @pytest.mark.parametrize("window", [3, 5, 1005])
    def test_exactly_three_windows(self, window):
        x = np.cos(np.arange(3 * window) * 0.01) * np.exp(-np.arange(3 * window) / window)
        self.assert_matches(x, window)

    def test_signed_zeros(self):
        x = np.random.default_rng(9).choice([0.0, -0.0], size=301)
        for window in (3, 7, 101):
            self.assert_matches(x, window)


class TestEnvelope:
    def test_constant_series_has_zero_amplitude(self):
        t = np.linspace(0.0, 10.0, 500)
        centers, amp = envelope(t, np.full_like(t, 3.7), window=21)
        assert centers.size == t.size - 2 * 20
        np.testing.assert_array_equal(amp, 0.0)

    def test_pure_cosine_amplitude(self):
        # 50 samples per period, window spans two periods.
        a0 = 2.5
        t = np.arange(0, 20.0, 0.02)
        x = a0 * np.cos(2.0 * math.pi * t)
        _, amp = envelope(t, x, window=101)
        assert np.all(np.abs(amp - a0) <= 0.05 * a0)

    def test_offset_does_not_leak_into_amplitude(self):
        a0 = 1.5
        t = np.arange(0, 20.0, 0.02)
        x = 40.0 + a0 * np.cos(2.0 * math.pi * t)
        _, amp = envelope(t, x, window=101)
        assert np.all(np.abs(amp - a0) <= 0.05 * a0)

    def test_beat_signal_minima_at_nodes(self):
        # cos(2pi t) + cos(2.2pi t): beat nodes at t = 5, 15, 25.
        t = np.arange(0.0, 30.0, 0.04)
        x = np.cos(2.0 * math.pi * t) + np.cos(2.2 * math.pi * t)
        centers, amp = envelope(t, x, window=51)
        span = 51 * 0.04
        for node in (5.0, 15.0, 25.0):
            nearby = amp[np.abs(centers - node) <= span]
            far = amp[np.abs(centers - node) > 2.0 * span]
            assert nearby.min() < 0.25 * far.max()

    def test_series_too_short_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError, match="too short"):
            envelope(t, np.sin(t), window=21)

    def test_even_window_rejected(self):
        t = np.linspace(0.0, 1.0, 200)
        with pytest.raises(ValueError, match="odd"):
            envelope(t, np.sin(t), window=20)

    def test_nonuniform_grid_rejected(self):
        t = np.concatenate([np.linspace(0, 1, 100), np.linspace(1.5, 3.0, 100)])
        with pytest.raises(ValueError, match="uniform"):
            envelope(t, np.sin(t), window=11)


def synthetic_collapse_revival(revival_at=20.0, revival_height=0.9):
    t = np.arange(0.0, 30.0, 0.01)
    env = np.exp(-((t / 2.0) ** 2)) + revival_height * np.exp(
        -(((t - revival_at) / 2.0) ** 2)
    )
    return t, env * np.cos(2.0 * math.pi * t)


class TestCollapseRevivalTime:
    def test_synthetic_signal(self):
        t, x = synthetic_collapse_revival()
        report = collapse_revival_time(t, x, window=201, n_total=100)
        assert report.detected
        assert report.reason is None
        # A0 is the envelope at its first center (t = 2), where the Gaussian
        # has already decayed; the 0.1 A0 crossing then lands near t = 4.1.
        assert report.collapse_time == pytest.approx(4.1, abs=0.7)
        assert report.t_cr == pytest.approx(20.0, abs=2.0 * 201 * 0.01)
        assert report.t_cr > report.collapse_time
        assert report.t_cr_rescaled == pytest.approx(8.0 * report.t_cr / 100.0)

    def test_constant_series_not_detected(self):
        t = np.linspace(0.0, 30.0, 3000)
        report = collapse_revival_time(t, np.ones_like(t))
        assert not report.detected
        assert report.t_cr is None and report.t_cr_rescaled is None

    def test_no_collapse_reported(self):
        t = np.arange(0.0, 30.0, 0.01)
        report = collapse_revival_time(t, np.cos(2.0 * math.pi * t), window=201)
        assert not report.detected
        assert report.reason == "no_collapse"
        assert report.collapse_time is None

    def test_no_revival_reported(self):
        t = np.arange(0.0, 30.0, 0.01)
        x = np.exp(-((t / 2.0) ** 2)) * np.cos(2.0 * math.pi * t)
        report = collapse_revival_time(t, x, window=201)
        assert not report.detected
        assert report.reason == "no_revival"
        assert report.collapse_time is not None
        assert report.t_cr is None

    def test_below_floor_reported(self):
        t, x = synthetic_collapse_revival()
        report = collapse_revival_time(t, x, window=201, amplitude_floor=10.0)
        assert not report.detected
        assert report.reason == "below_floor"

    def test_power_of_two_scaling_is_exact(self):
        t, x = synthetic_collapse_revival()
        base = collapse_revival_time(t, x, window=201)
        for scale in (0.25, 8.0, 1024.0):
            scaled = collapse_revival_time(t, scale * x, window=201)
            assert scaled.t_cr == base.t_cr
            assert scaled.collapse_time == base.collapse_time

    def test_generic_positive_scaling(self):
        # Plateau ties can break differently after generic rescaling, but
        # only within the envelope resolution of one window.
        t, x = synthetic_collapse_revival()
        span = 201 * 0.01
        base = collapse_revival_time(t, x, window=201)
        for scale in (0.37, 3.1415, 977.1):
            scaled = collapse_revival_time(t, scale * x, window=201)
            assert scaled.t_cr == pytest.approx(base.t_cr, abs=span)
            assert scaled.collapse_time == pytest.approx(base.collapse_time, abs=span)

    def test_envelope_metadata_recorded(self):
        t, x = synthetic_collapse_revival()
        report = collapse_revival_time(t, x, window=151, theta_c=0.2, theta_r=0.4)
        assert report.window == 151
        assert report.theta_c == 0.2
        assert report.theta_r == 0.4
        assert report.envelope.shape == (t.size - 2 * 150, 2)

    def test_bad_thresholds_rejected(self):
        t, x = synthetic_collapse_revival()
        for theta_c in (0.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match=rf"^theta_c must be in \(0, 1\), got {theta_c}$"):
                collapse_revival_time(t, x, theta_c=theta_c)
        for theta_r in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=rf"^theta_r must be in \(0, 1\], got {theta_r}$"):
                collapse_revival_time(t, x, theta_r=theta_r)
        for window in (10, 1, -3):
            for detector in (envelope, collapse_revival_time):
                with pytest.raises(ValueError, match=rf"^window must be odd and >= 3, got {window}$"):
                    detector(t, x, window=window)


class TestTimeAveragedImbalance:
    def test_linear_ramp(self):
        t = np.linspace(0.0, 4.0, 1001)
        assert time_averaged_imbalance(t, 2.0 * t) == pytest.approx(4.0, rel=1e-12)

    def test_full_period_sine_averages_out(self):
        t = np.linspace(0.0, 2.0 * math.pi, 20001)
        assert time_averaged_imbalance(t, np.sin(t)) == pytest.approx(0.0, abs=1e-8)

    def test_single_point(self):
        assert time_averaged_imbalance([1.0], [0.7]) == 0.7

    def test_negation_antisymmetry(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 5.0, 300)
        x = rng.normal(size=t.size)
        assert time_averaged_imbalance(t, -x) == -time_averaged_imbalance(t, x)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            time_averaged_imbalance([], [])


class TestDeltaMuDominance:
    def test_zero_bias_never_dominates_positive_imbalance(self):
        cfg = CouplingConfig(10, k=1.0, delta_mu=0.0, e_j=1.0)
        assert delta_mu_dominance(cfg, fock(8, 2)) is False

    def test_zero_scattering_any_positive_bias_dominates(self):
        cfg = CouplingConfig(10, k=0.0, delta_mu=0.5, e_j=1.0)
        assert delta_mu_dominance(cfg, fock(8, 2)) is True

    def test_strict_inequality_at_equality_point(self):
        # (0.1/2) * 20 rounds to exactly 1.0, and 1.0 > 1.0 is false.
        cfg = CouplingConfig(100, k=0.1, delta_mu=1.0, e_j=1.0)
        assert delta_mu_dominance(cfg, fock(60, 40)) is False
