"""The fused uniform-grid path of run_scenario: GridPropagator.blocks + reduce_blocks.

These checks run on run_scenario itself. The evolve_series / compute_series
path that the acceptance criteria exercise shares GridPropagator's overlaps
and truncation with it, so test_matches_reference_path compares what stays
independent: the block phase table exp(-i lam k dt) exp(-i lam t_s) against
direct phases exp(-i lam t_j), and one gemm per block against one gemv per
time and part. The truncation is checked against the dense
scaling-and-squaring oracle of tests/oracles.py.
"""

import tracemalloc

import numpy as np
import pytest

from bhdimer import spectral
from bhdimer.cli import ScenarioSpec, run_scenario
from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.observables import ObservableSeries, compute_series
from bhdimer.spectral import (
    DROPPED_WEIGHT_MAX,
    GridPropagator,
    block_rows,
    eigendecompose,
    evolve,
    evolve_series,
)
from bhdimer.states import parse_state

from oracles import brute_force_moments, propagate_dense


def spec(n, initial, k=1.0, e_j=7.0, dmu=0.0, t_max=20.0, steps=1500):
    return ScenarioSpec(
        config=CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j),
        initial=initial,
        t_max=t_max,
        steps=steps,
        window=21,
    )


def full_rows(dim):
    """Rows of a full block of GridPropagator.blocks at this dimension."""
    return block_rows(dim, 2**62)


def columns(series):
    return {name: getattr(series, name) for name in ObservableSeries.COLUMNS}


def reference_series(s: ScenarioSpec):
    cfg = s.config
    h = build_hamiltonian(cfg)
    t = np.linspace(0.0, s.t_max, s.steps) if cfg.n_total else np.array([0.0])
    states = evolve_series(eigendecompose(h), parse_state(s.initial, cfg.n_total), t)
    return compute_series(states, t, h)


def test_tunneling_sign_flip_is_bitwise():
    n = 60
    steps = full_rows(n + 1) + 703  # two blocks, the second partial
    a, _ = run_scenario(spec(n, "fock:45,15", e_j=7.0, steps=steps))
    b, _ = run_scenario(spec(n, "fock:45,15", e_j=-7.0, steps=steps))
    for name, col in columns(a).items():
        assert np.array_equal(col, getattr(b, name)), name


def test_mirror_symmetry_at_zero_bias():
    a, _ = run_scenario(spec(60, "fock:45,15"))
    b, _ = run_scenario(spec(60, "fock:15,45"))
    assert np.abs(a.imbalance + b.imbalance).max() <= 1e-9
    assert np.abs(a.variance - b.variance).max() <= 1e-9
    assert np.abs(a.entanglement_bits - b.entanglement_bits).max() <= 1e-9


@pytest.mark.parametrize(
    "n,initial,dmu,steps",
    [
        (200, "fock:150,50", 0.3, 8 * full_rows(201) + 17),
        (200, "me", 0.0, 12 * full_rows(201) - 1),
        (0, "fock:0,0", 0.5, 100),
        (1, "fock:1,0", 0.0, 333),
        (1, "fock:0,1", 0.2, 333),
    ],
)
def test_matches_reference_path(n, initial, dmu, steps):
    rows = full_rows(n + 1)
    assert n == 0 or steps % rows != 0 or steps < rows
    s = spec(n, initial, k=1.0, e_j=0.5 * max(n, 1), dmu=dmu, steps=steps)
    got, _ = run_scenario(s)
    want = reference_series(s)
    assert np.array_equal(got.t, want.t)
    for name, col in columns(got).items():
        # Relative to the column's scale: the phases of both paths carry
        # round-off of order eps * max|lambda| * t_max.
        ref = getattr(want, name)
        assert np.abs(col - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


@pytest.mark.parametrize("n", [40, 41])
def test_cat_keeps_at_most_its_parity_sector(n):
    _, summary = run_scenario(spec(n, "cat", k=1.0, e_j=1.0))
    diag = summary["diagnostics"]
    assert diag["kept_components"] <= n // 2 + 1
    assert 0.0 <= diag["dropped_weight"] <= DROPPED_WEIGHT_MAX


def test_truncation_is_reported_per_state():
    h = build_hamiltonian(CouplingConfig(100, k=1.0, e_j=1e4))
    decomp = eigendecompose(h)
    fock = GridPropagator(decomp, parse_state("fock:100,0", 100))
    uniform = GridPropagator(decomp, parse_state("me", 100))
    assert fock.kept_components < 101
    assert 0.0 < fock.dropped_weight <= DROPPED_WEIGHT_MAX
    assert 1 <= uniform.kept_components <= 51  # even sector of N = 100


def test_truncated_path_matches_dense_oracle():
    # A Fock start at ej = 1e4 keeps 98 of 101 components (dropped weight
    # ~7e-29); dropping up to 1e-6 instead moves the imbalance by over 1e-6.
    s = spec(100, "fock:100,0", k=1.0, e_j=1e4, t_max=0.02, steps=41)
    got, summary = run_scenario(s)
    assert summary["diagnostics"]["kept_components"] < 101
    h = build_hamiltonian(s.config)
    decomp = eigendecompose(h)
    psi = parse_state(s.initial, 100)
    for j in (1, 13, 27, 40):
        want = propagate_dense(h.to_dense(), psi.coefficients, got.t[j])
        assert abs(got.imbalance[j] - brute_force_moments(want)[0]) <= 1e-10
        assert np.abs(evolve(decomp, psi, got.t[j]).coefficients - want).max() <= 1e-10


def test_blocks_keep_a_row_floor(monkeypatch):
    # BLOCK_ELEMENTS // dim would give 10 rows; the floor keeps 64.
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 1024)
    n = 100
    propagator = GridPropagator(
        eigendecompose(build_hamiltonian(CouplingConfig(n, k=1.0, e_j=1.0))),
        parse_state("fock:100,0", n),
    )
    assert block_rows(n + 1, 200) == 64
    assert [cr.shape[0] for cr, _ in propagator.blocks(0.01, 200)] == [64, 64, 64, 8]
    assert [cr.shape[0] for cr, _ in propagator.blocks(0.01, 63)] == [63]


def test_phase_overflow_is_rejected():
    propagator = GridPropagator(
        eigendecompose(build_hamiltonian(CouplingConfig(4, k=1e306))),
        parse_state("fock:4,0", 4),
    )
    with pytest.raises(ValueError, match="not finite"):
        next(propagator.blocks(30.0, 10))


def _peak_bytes(steps: int) -> int:
    s = spec(100, "fock:100,0", k=1.0, e_j=100.0, t_max=30.0, steps=steps)
    tracemalloc.start()
    try:
        run_scenario(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_steps():
    # tracemalloc sees numpy's data buffers. Ten times the steps may only add
    # the seven float64 output columns plus a fixed 1 MB.
    short, long = 4_000, 40_000
    _peak_bytes(short)  # warm caches and imports
    growth = _peak_bytes(long) - _peak_bytes(short)
    assert growth <= 7 * 8 * (long - short) + 1_000_000
