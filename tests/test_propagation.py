"""The fused uniform-grid path: compute_series over evolve_series's blocks.

Most checks run on run_scenario itself. test_matches_reference_path
compares it with the plain-numpy spectral reference of tests/oracles.py:
every eigencomponent kept, direct phases exp(-i lam t_j) against the block
phase table exp(-i lam k dt) exp(-i lam t_s), and one complex product per
grid against the split real gemms per block. The truncation is checked
against the dense scaling-and-squaring oracle of tests/oracles.py, and the
row window of localized states against the spectral reference and, at large
N, against the closed-form Rabi limit.
"""

import tracemalloc

import numpy as np
import pytest

from bhdimer import spectral
from bhdimer.model import CouplingConfig, TridiagonalHamiltonian, build_hamiltonian
from bhdimer.observables import ObservableSeries, compute_series
from bhdimer.pipeline import ScenarioSpec, run_scenario
from bhdimer.spectral import (
    DROPPED_WEIGHT_MAX,
    StateVector,
    block_rows,
    eigendecompose,
    evolve,
    evolve_series,
)
from bhdimer.states import parse_state

from oracles import brute_force_moments, propagate_dense, rabi_limit_series, spectral_reference


def spec(n, initial, k=1.0, e_j=7.0, dmu=0.0, t_max=20.0, steps=1500):
    return ScenarioSpec(
        config=CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j),
        initial=initial,
        t_max=t_max,
        steps=steps,
        window=21,
    )


def full_rows(dim):
    """Grid times in a full block of evolve_series at this dimension."""
    return block_rows(dim, 2**62)


def columns(series):
    return {name: getattr(series, name) for name in ObservableSeries.COLUMNS}


def reference_series(s: ScenarioSpec):
    cfg = s.config
    h = build_hamiltonian(cfg)
    t = np.linspace(0.0, s.t_max, s.steps) if cfg.n_total else np.array([0.0])
    psi = parse_state(s.initial, cfg.n_total)
    c = spectral_reference(eigendecompose(h), psi.coefficients, t)
    return compute_series([c], t, h)


# At N = 61 the +-1 similarity swaps the even and odd labels between the
# two signs, so the split product pairs its halves the other way round. At
# k = 7 N (ratio N) both states keep a window of rows.
@pytest.mark.parametrize(
    "n,initial,k",
    [
        pytest.param(60, "fock:45,15", 1.0, id="60-fock:45,15"),
        pytest.param(61, "fock:46,15", 1.0, id="61-fock:46,15"),
        pytest.param(60, "fock:60,0", 420.0, id="60-fock:60,0-window"),
        pytest.param(61, "cat", 427.0, id="61-cat-window"),
    ],
)
def test_tunneling_sign_flip_is_bitwise(n, initial, k):
    steps = full_rows(n + 1) + 703  # two blocks, the second partial
    a, diag = run_scenario(spec(n, initial, k=k, e_j=7.0, steps=steps))
    b, diag_b = run_scenario(spec(n, initial, k=k, e_j=-7.0, steps=steps))
    assert (diag["diagnostics"]["kept_rows"] < n + 1) == (k > 1.0)
    for name, col in columns(a).items():
        assert np.array_equal(col, getattr(b, name)), name
    assert diag_b == diag


def test_mirror_symmetry_at_zero_bias():
    # At k = 7 N (ratio N) fock:60,0 and fock:0,60 keep a window of rows.
    for initial, mirror, k in (("fock:45,15", "fock:15,45", 1.0), ("fock:60,0", "fock:0,60", 420.0)):
        a, _ = run_scenario(spec(60, initial, k=k))
        b, _ = run_scenario(spec(60, mirror, k=k))
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
        # The split product at odd and even dim, ending in a partial block.
        (200, "fock:150,50", 0.0, 3 * full_rows(201) + 17),
        (201, "fock:150,51", 0.0, 3 * full_rows(202) + 29),
        (201, "cat", 0.0, 3 * full_rows(202) + 5),
    ],
)
def test_matches_reference_path(n, initial, dmu, steps):
    rows = full_rows(n + 1)
    assert n == 0 or steps % rows != 0 or steps < rows
    s = spec(n, initial, k=1.0, e_j=0.5 * max(n, 1), dmu=dmu, steps=steps)
    got, summary = run_scenario(s)
    # The split product runs at zero bias: cat and me are mirror symmetric,
    # so they keep one parity sector, and these Fock starts keep both.
    split = summary["diagnostics"]["kept_per_parity"]
    if dmu or n == 0:
        assert split is None
    else:
        assert np.count_nonzero(split) == (1 if initial in ("cat", "me") else 2)
    assert summary["diagnostics"]["kept_rows"] == n + 1  # Rabi side: no window
    want = reference_series(s)
    assert np.array_equal(got.t, want.t)
    for name, col in columns(got).items():
        # Relative to the column's scale: the phases of both paths carry
        # round-off of order eps * max|lambda| * t_max.
        ref = getattr(want, name)
        assert np.abs(col - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


# Ratio k/e_j = N, self-trapped: each state keeps a window of rows. The split
# product keeps the top rows of a window and their mirror images, which for
# fock:74,26 are two runs around rows 26 and 74; cat keeps a window of its
# sector; with bias the whole matrix's window is one run.
@pytest.mark.parametrize(
    "initial,dmu,parity",
    [("fock:100,0", 0.0, [5, 5]), ("fock:74,26", 0.0, [11, 11]), ("cat", 0.0, [5, 0]),
     ("fock:100,0", 0.3, None)],
)
def test_windowed_states_match_reference(initial, dmu, parity):
    s = spec(100, initial, k=100.0, e_j=1.0, dmu=dmu, t_max=2.0, steps=2 * full_rows(101) + 17)
    got, summary = run_scenario(s)
    diag = summary["diagnostics"]
    assert diag["kept_per_parity"] == parity
    assert diag["kept_rows"] < 40
    assert 0.0 < diag["dropped_row_weight"] <= DROPPED_WEIGHT_MAX
    want = reference_series(s)
    for name, col in columns(got).items():
        ref = getattr(want, name)
        assert np.abs(col - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


def test_split_window_keeps_mirror_images():
    h = build_hamiltonian(CouplingConfig(100, k=100.0, e_j=1.0))
    decomp, t = eigendecompose(h), np.linspace(0.0, 1.0, 50)
    basis = evolve_series(decomp, parse_state("fock:74,26", 100), t).basis
    top = basis.rows[basis.rows < 50]
    assert basis.sector is None and 26 in top and top.max() < 49
    assert np.array_equal(basis.rows[top.size :], 100 - top[::-1])
    # The two runs do not touch, so the coupling between them is dropped.
    diagonal, offdiagonal = basis.hamiltonian(h)
    assert np.array_equal(diagonal, h.diagonal[basis.rows])
    assert offdiagonal[top.size - 1] == 0.0
    assert np.count_nonzero(offdiagonal) == basis.rows.size - 2


# k = 0: the closed-form Rabi limit. dmu = 20 holds |N,0> near its start,
# so the whole matrix keeps a window (about 36 of 1001 and 63 of 4001 rows);
# at dmu = 0 the split product keeps every row. The tolerances scale with
# the phase round-off the propagator reports. At e_j = 1e6, max|lambda| *
# t_max is about 1.5e10, so that round-off dominates every other error.
@pytest.mark.parametrize(
    "n,e_j,dmu,t_max,windowed",
    [
        pytest.param(1000, 1.0, 20.0, 3.0, True, id="1000-20.0-3.0-True"),
        pytest.param(4000, 1.0, 20.0, 3.0, True, id="4000-20.0-3.0-True"),
        pytest.param(1000, 1.0, 0.0, 30.0, False, id="1000-0.0-30.0-False"),
        pytest.param(1000, 1e6, 0.0, 30.0, False, id="1000-0.0-30.0-False-ej1e6"),
    ],
)
def test_rabi_limit_matches_closed_form(n, e_j, dmu, t_max, windowed):
    h = build_hamiltonian(CouplingConfig(n, k=0.0, delta_mu=dmu, e_j=e_j))
    t = np.linspace(0.0, t_max, 301)
    propagator = evolve_series(eigendecompose(h), parse_state(f"fock:{n},0", n), t)
    assert (propagator.basis.kept_rows < n // 10) == windowed
    assert windowed or propagator.basis.kept_rows == n + 1
    got = compute_series(propagator, t, h)
    imbalance, variance, bits = rabi_limit_series(n, e_j, dmu, t)
    bound = 10.0 * propagator.phase_error_bound
    assert np.abs(got.imbalance - imbalance).max() <= n * bound
    assert np.abs(got.variance - variance).max() <= n * bound
    assert np.abs(got.entanglement_bits - bits).max() <= bound


def _odd_cat(n):
    # (|N,0> - |0,N>)/sqrt2: the one mirror-odd state of these tests.
    c = np.zeros(n + 1)
    c[0], c[n] = np.sqrt(0.5), -np.sqrt(0.5)
    return StateVector(c)


SECTOR_CASES = [
    *((n, initial) for n in (1, 2, 7, 8, 61, 200) for initial in ("cat", "me", "odd-cat")),
    *((n, f"fock:{n // 2},{n // 2}") for n in (2, 8, 200)),
]


# Odd N with e_j < 0 swaps the parity labels of the eigensolver's blocks.
@pytest.mark.parametrize("e_j_sign", [1.0, -1.0], ids=["ej+", "ej-"])
@pytest.mark.parametrize("n,initial", SECTOR_CASES)
def test_single_sector_basis_matches_reference(n, initial, e_j_sign):
    h = build_hamiltonian(CouplingConfig(n, k=1.0, e_j=e_j_sign * 0.5 * n))
    decomp = eigendecompose(h)
    psi = _odd_cat(n) if initial == "odd-cat" else parse_state(initial, n)
    t = np.linspace(0.0, 20.0, 2 * full_rows(n + 1) + 17)  # ends in a partial block
    propagator = evolve_series(decomp, psi, t)
    sector = "odd" if initial == "odd-cat" else "even"
    assert propagator.basis.sector == sector
    assert propagator.kept_per_parity[sector == "even"] == 0
    got = compute_series(propagator, t, h)
    c = spectral_reference(decomp, psi.coefficients, t)
    want = compute_series([c], t, h)
    # d is odd under the mirror: its weights in the sector basis are zeros.
    for name in ("imbalance", "imbalance_scaled"):
        assert np.array_equal(getattr(got, name), np.zeros(t.size)), name
        assert not np.signbit(getattr(got, name)).any(), name
    for name, col in columns(got).items():
        ref = getattr(want, name)
        assert np.abs(col - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name
    state = evolve(decomp, psi, t[-1])
    assert state.dim == n + 1
    assert np.abs(state.coefficients - c[:, -1]).max() <= 1e-10


def test_only_single_sector_states_take_the_sector_basis():
    t = np.linspace(0.0, 1.0, 50)
    h = build_hamiltonian(CouplingConfig(200, k=1.0, e_j=100.0))
    decomp = eigendecompose(h)
    cat = evolve_series(decomp, parse_state("cat", 200), t)
    assert cat.kept_per_parity[1] == 0 and cat.basis.sector == "even"
    assert [c.shape for c in cat] == [(101, 50)]
    fock = evolve_series(decomp, parse_state("fock:200,0", 200), t)
    assert min(fock.kept_per_parity) > 0 and fock.basis.sector is None
    assert [c.shape for c in fock] == [(201, 50)]
    biased = build_hamiltonian(CouplingConfig(200, k=1.0, delta_mu=0.1, e_j=100.0))
    cat = evolve_series(eigendecompose(biased), parse_state("cat", 200), t)
    assert cat.kept_per_parity is None and cat.basis.sector is None
    assert [c.shape for c in cat] == [(201, 50)]


@pytest.mark.parametrize("n", [40, 41])
def test_cat_keeps_at_most_its_parity_sector(n):
    _, summary = run_scenario(spec(n, "cat", k=1.0, e_j=1.0))
    diag = summary["diagnostics"]
    assert diag["kept_components"] <= n // 2 + 1
    assert 0.0 <= diag["dropped_weight"] <= DROPPED_WEIGHT_MAX


def test_truncation_is_reported_per_state():
    h = build_hamiltonian(CouplingConfig(100, k=1.0, e_j=1e4))
    decomp = eigendecompose(h)
    fock = evolve_series(decomp, parse_state("fock:100,0", 100), [])
    uniform = evolve_series(decomp, parse_state("me", 100), [])
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
    decomp = eigendecompose(build_hamiltonian(CouplingConfig(n, k=1.0, e_j=1.0)))
    psi = parse_state("fock:100,0", n)
    assert block_rows(n + 1, 200) == 64
    # One column per grid time.
    blocks = evolve_series(decomp, psi, np.linspace(0.0, 1.99, 200))
    assert [c.shape[1] for c in blocks] == [64, 64, 64, 8]
    blocks = evolve_series(decomp, psi, np.linspace(0.0, 0.62, 63))
    assert [c.shape[1] for c in blocks] == [63]


def _mixed_sign_mirror():
    # Mirror-symmetric up to coupling signs: the parity blocks solve it, but
    # the +-1 similarity leaves its columns without parity labels.
    return TridiagonalHamiltonian(np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, -1.0, -1.0]))


@pytest.mark.parametrize(
    "make_h,split",
    [
        (lambda: build_hamiltonian(CouplingConfig(40, k=0.1, e_j=3.0)), True),
        (lambda: build_hamiltonian(CouplingConfig(40, k=0.1, e_j=-3.0)), True),
        (lambda: build_hamiltonian(CouplingConfig(41, k=0.1, e_j=3.0)), True),
        (lambda: build_hamiltonian(CouplingConfig(41, k=0.1, e_j=-3.0)), True),
        (lambda: build_hamiltonian(CouplingConfig(40, k=0.1, delta_mu=0.3, e_j=3.0)), False),
        (_mixed_sign_mirror, False),
    ],
    ids=["n40", "n40-neg", "n41", "n41-neg", "biased", "mixed-signs"],
)
def test_block_columns_match_single_times(monkeypatch, make_h, split):
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 1024)  # 64-column blocks
    h = make_h()
    rng = np.random.default_rng(11)
    c0 = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
    decomp, psi = eigendecompose(h), StateVector(c0 / np.linalg.norm(c0))
    # Small phases lam * t: their round-off stays below 1e-14.
    t = np.linspace(0.0, 0.149, 150)
    blocks = evolve_series(decomp, psi, t)
    assert (blocks.kept_per_parity is not None) == split
    # Each block is a view of a buffer the next one overwrites.
    got = np.concatenate([c.copy() for c in blocks], axis=1)
    assert got.shape == (h.dim, t.size)
    for j in range(t.size):
        want = evolve(decomp, psi, t[j]).coefficients
        assert np.abs(got[:, j] - want).max() <= 1e-14 * np.abs(want).max(), j


def test_phase_overflow_is_rejected():
    decomp = eigendecompose(build_hamiltonian(CouplingConfig(4, k=1e306)))
    with pytest.raises(ValueError, match="not finite"):
        evolve_series(decomp, parse_state("fock:4,0", 4), np.linspace(0.0, 270.0, 10))


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
