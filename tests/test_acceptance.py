"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so a full run always reports every criterion.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from bhdimer.analysis import collapse_revival_time, time_averaged_imbalance
from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.observables import compute_series, entanglement_entropy, variance_imbalance
from bhdimer.pipeline import DEFAULT_STEPS
from bhdimer.presets import DEFAULT_N, PRESETS, parse_ratio, realize_ratio
from bhdimer.spectral import StateVector, eigendecompose, evolve, evolve_series
from bhdimer.states import cat, maximally_entangled, parse_state

from oracles import propagate_dense, uniform_state_variance_exact

FOUR_PI = 4.0 * math.pi


@lru_cache(maxsize=None)
def decomposition(n, k, e_j, dmu):
    h = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j))
    return h, eigendecompose(h)


def initial_state(key, n):
    if key.startswith("flip:"):
        base = parse_state(key[5:], n)
        return StateVector((-1.0) ** np.arange(n + 1) * base.coefficients)
    return parse_state(key, n)


@lru_cache(maxsize=None)
def trajectory(n, k, e_j, dmu, initial_key, t_max, steps):
    h, d = decomposition(n, k, e_j, dmu)
    t = np.linspace(0.0, t_max, steps)
    return compute_series(evolve_series(d, initial_state(initial_key, n), t), t, h)


def detect(series, n):
    return collapse_revival_time(
        series.t, series.imbalance, amplitude_floor=0.01 * n, n_total=n
    )


def mirrored(initial: str) -> str:
    if initial.startswith("fock:"):
        m, n = initial[5:].split(",")
        return f"fock:{n.strip()},{m.strip()}"
    return initial


def preset_cells():
    """Every concrete (config, initial, grid) cell the presets expand to."""
    cells = set()
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        n = DEFAULT_N
        d = preset.build(n)
        steps = int(d.get("steps", DEFAULT_STEPS))
        dmu = float(d.get("delta_mu", 0.0))
        if d.get("ratios"):
            for token in d["ratios"]:
                k, e_j = realize_ratio(parse_ratio(token, n))
                for init in d["initials"]:
                    cells.add((n, k, e_j, dmu, init, float(d["t_max"]), steps))
        else:
            cells.add((n, d["k"], d["e_j"], dmu, d["initial"], float(d["t_max"]), steps))
    return sorted(cells)


def test_criterion_1_constant_revival_time(criterion):
    devs = {}
    for n in (100, 400):
        series = trajectory(n, 1.0, float(n) ** 2, 0.0, f"fock:{n},0", 30.0, 12_000)
        report = detect(series, n)
        assert report.detected, f"no revival detected at N={n}"
        devs[n] = abs(report.t_cr - FOUR_PI) / FOUR_PI
    criterion(
        1,
        "t_cr within 5% of 4pi at k=1, ej=N^2 for N in {100, 400}",
        all(dev <= 0.05 for dev in devs.values()),
        f"deviations {devs[100]:.2%} (N=100), {devs[400]:.2%} (N=400)",
    )


def test_criterion_2_rescaled_revival_time(criterion):
    rescaled = {}
    means = {}
    for n in (100, 400):
        series = trajectory(n, 8.0 / n, 1.0, 0.0, f"fock:0,{n}", 1.6 * n, DEFAULT_STEPS)
        report = detect(series, n)
        assert report.detected, f"no revival detected at N={n}"
        rescaled[n] = report.t_cr_rescaled
        means[n] = time_averaged_imbalance(series.t, series.imbalance_scaled)
    spread = abs(rescaled[100] - rescaled[400]) / max(rescaled.values())
    criterion(
        2,
        "t*_cr = 8 t_cr / N agrees across N within 10% and mean imbalance < -0.5",
        spread <= 0.10 and all(m < -0.5 for m in means.values()),
        f"t*_cr {rescaled[100]:.3f} vs {rescaled[400]:.3f} (spread {spread:.2%}), "
        f"means {means[100]:.3f}, {means[400]:.3f}",
    )


def test_criterion_3_threshold_scan(criterion):
    n = 100
    tokens = ["1/N", "2/N", "3/N", "4/N", "5/N", "10/N", "50/N", "1"]
    means = []
    for token in tokens:
        ratio = parse_ratio(token, n)
        k, e_j = realize_ratio(ratio)
        series = trajectory(n, k, e_j, 0.0, f"fock:{n},0", 100.0, DEFAULT_STEPS)
        means.append(time_averaged_imbalance(series.t, series.imbalance_scaled))
    below_ok = all(abs(m) <= 0.2 for m in means[:3])
    above_ok = all(m >= 0.5 for m in means[4:])
    monotone = all(b >= a - 1e-3 for a, b in zip(means, means[1:]))
    bracketed = means[2] < means[3] < means[4]
    criterion(
        3,
        "mean scaled imbalance <= 0.2 up to 3/N, >= 0.5 from 5/N, "
        "monotone and bracketed at 4/N",
        below_ok and above_ok and monotone and bracketed,
        "means " + ", ".join(f"{t}:{m:+.3f}" for t, m in zip(tokens, means)),
    )


def test_criterion_4_entanglement_saturation(criterion):
    n = 100
    rabi = trajectory(n, 1.0, float(n) ** 2, 0.0, f"fock:{n},0", 30.0, DEFAULT_STEPS)
    josephson = trajectory(n, 1.0, 1.0, 0.0, f"fock:{n},0", 30.0, DEFAULT_STEPS)
    max_rabi = rabi.entanglement_bits.max()
    max_josephson = josephson.entanglement_bits.max()
    bound = 0.9 * math.log2(n + 1)
    criterion(
        4,
        "entanglement saturates (>= 0.9 log2(N+1)) at ratio 1/N^2 and stays "
        "below 1 bit at ratio 1",
        max_rabi >= bound and max_josephson < 1.0,
        f"max {max_rabi:.3f} bits (>= {bound:.3f}) vs {max_josephson:.3f} bits",
    )


def test_criterion_5_exact_state_values(criterion):
    n = 100
    checks = {
        "ent(cat)=1": abs(entanglement_entropy(cat(n)) - 1.0) <= 1e-12,
        "ent(me)=log2(N+1)": abs(
            entanglement_entropy(maximally_entangled(n)) - math.log2(n + 1)
        )
        <= 1e-12,
        "var(cat)=N^2 exactly": variance_imbalance(cat(n)) == float(n * n)
        and variance_imbalance(cat(400)) == 160_000.0,
        "var(me)=N(N+2)/3": abs(
            variance_imbalance(maximally_entangled(n))
            - uniform_state_variance_exact(n)
        )
        <= 1e-9
        and uniform_state_variance_exact(n) == n * (n + 2) / 3.0,
    }
    criterion(
        5,
        "cat/me entanglement and variance match their closed forms",
        all(checks.values()),
        ", ".join(k for k, ok in checks.items() if not ok) or "all exact",
    )


def test_criterion_6_cat_state_trapped_variance(criterion):
    n = 100
    series = trajectory(n, 1.0, 1.0, 0.0, "cat", 50.0, DEFAULT_STEPS)
    floor = series.variance.min()
    criterion(
        6,
        "cat-state variance stays >= 0.9 N^2 at ratio 1",
        floor >= 0.9 * n * n,
        f"min variance {floor:.1f} vs bound {0.9 * n * n:.0f}",
    )


def test_criterion_7_matrix_exponential_oracle(criterion):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        cfg = CouplingConfig(
            n,
            k=float(rng.uniform(-2.0, 2.0)),
            delta_mu=float(rng.uniform(-1.0, 1.0)),
            e_j=float(rng.uniform(-2.0, 2.0)),
        )
        h = build_hamiltonian(cfg)
        d = eigendecompose(h)
        c0 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c0 /= np.linalg.norm(c0)
        psi = StateVector(c0)
        dense = h.to_dense()
        for t in (0.1, 1.0, 10.0):
            err = np.abs(
                evolve(d, psi, t).coefficients - propagate_dense(dense, c0, t)
            ).max()
            worst = max(worst, err)
    criterion(
        7,
        "spectral evolution matches scaling-and-squaring exponential "
        "(50 random configs, N <= 12) to 1e-8",
        worst <= 1e-8,
        f"worst coefficient error {worst:.2e}",
    )


def test_criterion_8_invariant_suite_over_presets(criterion):
    worst = {"norm": 0.0, "energy": 0.0, "mirror": 0.0, "flip": 0.0}
    cells = preset_cells()
    for n, k, e_j, dmu, init, t_max, steps in cells:
        series = trajectory(n, k, e_j, dmu, init, t_max, steps)
        worst["norm"] = max(worst["norm"], series.norm_error.max())
        drift = np.abs(series.energy - series.energy[0]).max()
        worst["energy"] = max(
            worst["energy"], drift / max(1.0, abs(series.energy[0]))
        )
        if dmu == 0.0:
            mirror = trajectory(n, k, e_j, dmu, mirrored(init), t_max, steps)
            worst["mirror"] = max(
                worst["mirror"], np.abs(series.imbalance + mirror.imbalance).max()
            )
        flipped = trajectory(n, k, -e_j, dmu, "flip:" + init, t_max, steps)
        worst["flip"] = max(
            worst["flip"],
            np.abs(series.imbalance - flipped.imbalance).max(),
            np.abs(series.variance - flipped.variance).max(),
            np.abs(series.entanglement_bits - flipped.entanglement_bits).max(),
        )
    criterion(
        8,
        f"invariants over all {len(cells)} preset cells: norm <= 1e-10, "
        "energy drift <= 1e-9, mirror <= 1e-9, sign-flip <= 1e-10",
        worst["norm"] <= 1e-10
        and worst["energy"] <= 1e-9
        and worst["mirror"] <= 1e-9
        and worst["flip"] <= 1e-10,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_9_eigensolver_quality(criterion):
    rng = np.random.default_rng(99)
    worst_orth = 0.0
    worst_res = 0.0
    for n in (10, 100, 400, 1000):
        for _ in range(2 if n <= 400 else 1):
            h, d = decomposition(
                n,
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(-1.0, 1.0)),
            )
            v = d.eigenvectors
            worst_orth = max(
                worst_orth, np.abs(v.T @ v - np.eye(n + 1)).max()
            )
            hv = h.diagonal[:, None] * v
            hv[:-1] += h.offdiagonal[:, None] * v[1:]
            hv[1:] += h.offdiagonal[:, None] * v[:-1]
            res = np.linalg.norm(hv - d.eigenvalues[None, :] * v, axis=0).max()
            worst_res = max(
                worst_res, res / max(1.0, np.abs(d.eigenvalues).max())
            )

    _, d1 = decomposition(1, 0.8, 1.0, 0.0)
    two_level = np.abs(d1.eigenvalues - np.array([-0.4, 0.6])).max()
    _, d2 = decomposition(2, 8.0, 2.0, 0.0)
    s2 = 2.0 * math.sqrt(2.0)
    three_level = np.abs(d2.eigenvalues - np.array([2.0 - s2, 4.0, 2.0 + s2])).max()

    criterion(
        9,
        "eigensolver: orthonormality <= 1e-10, scaled residual <= 1e-9 up to "
        "N=1000; analytic N=1,2 spectra to 1e-12",
        worst_orth <= 1e-10
        and worst_res <= 1e-9
        and two_level <= 1e-12
        and three_level <= 1e-12,
        f"orth={worst_orth:.2e}, residual={worst_res:.2e}, "
        f"analytic={max(two_level, three_level):.2e}",
    )


def test_criterion_10_bias_breaks_mirror_symmetry(criterion):
    n = 100
    grid = (30.0, DEFAULT_STEPS)

    balanced_biased = trajectory(n, 1.0, 1.0, 0.5, "fock:50,50", *grid)
    balanced_free = trajectory(n, 1.0, 1.0, 0.0, "fock:50,50", *grid)
    swing_biased = np.abs(balanced_biased.imbalance_scaled).max()
    swing_free = np.abs(balanced_free.imbalance_scaled).max()

    gap_biased = np.abs(
        trajectory(n, 1.0, 1.0, 0.5, "fock:60,40", *grid).imbalance
        + trajectory(n, 1.0, 1.0, 0.5, "fock:40,60", *grid).imbalance
    ).max()
    gap_free = np.abs(
        trajectory(n, 1.0, 1.0, 0.0, "fock:60,40", *grid).imbalance
        + trajectory(n, 1.0, 1.0, 0.0, "fock:40,60", *grid).imbalance
    ).max()

    criterion(
        10,
        "dmu=0.5 moves the balanced state and breaks the (m,n)<->(n,m) "
        "mirror; dmu=0 keeps both exact",
        swing_biased > 0.01
        and swing_free <= 1e-9
        and gap_biased > 0.01 * n
        and gap_free <= 1e-9,
        f"balanced swing {swing_biased:.3f} vs {swing_free:.1e}; "
        f"mirror gap {gap_biased:.2f} vs {gap_free:.1e}",
    )
