import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.observables import (
    ObservableSeries,
    ZeroNormError,
    compute_series,
    entanglement_entropy,
    expectation_imbalance,
    variance_imbalance,
)
from bhdimer.spectral import Basis, StateVector, block_rows, eigendecompose, evolve, evolve_series
from bhdimer.states import cat, fock, maximally_entangled, parse_state

from oracles import brute_force_moments, longdouble_series, uniform_state_variance_exact


def single_row(state, t, h):
    """Every observable of one state at time t: a one-column compute_series."""
    row = compute_series([state.coefficients[:, None]], [t], h)
    return SimpleNamespace(**{name: float(getattr(row, name)[0]) for name in row.COLUMNS})


def random_states(max_dim=24):
    def build(raw):
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raw = raw + 1.0
            norm = np.linalg.norm(raw)
        return StateVector(raw / norm)

    return (
        st.integers(1, max_dim)
        .flatmap(
            lambda d: arrays(
                np.complex128,
                d,
                elements=st.complex_numbers(
                    max_magnitude=1e3, allow_nan=False, allow_infinity=False
                ),
            )
        )
        .map(build)
    )


class TestExpectationImbalance:
    def test_extreme_fock_state(self):
        assert expectation_imbalance(fock(7, 0)) == 7.0
        assert expectation_imbalance(fock(0, 7)) == -7.0

    def test_uniform_state_is_balanced(self):
        assert expectation_imbalance(maximally_entangled(100)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rabi_half_period(self):
        d = eigendecompose(build_hamiltonian(CouplingConfig(1, e_j=1.0)))
        s = evolve(d, fock(1, 0), math.pi)
        assert expectation_imbalance(s) == pytest.approx(-1.0, abs=1e-12)

    @given(state=random_states())
    def test_bounded_by_total_number(self, state):
        n = state.n_total
        assert abs(expectation_imbalance(state)) <= n + 1e-9

    @given(state=random_states())
    def test_matches_brute_force(self, state):
        mean, _ = brute_force_moments(state.coefficients)
        assert expectation_imbalance(state) == pytest.approx(mean, abs=1e-10)


class TestVarianceImbalance:
    @given(m=st.integers(0, 20), n=st.integers(0, 20))
    def test_fock_states_have_zero_variance(self, m, n):
        assert variance_imbalance(fock(m, n)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 13, 100, 400])
    def test_cat_state_is_exactly_maximal(self, n):
        assert variance_imbalance(cat(n)) == float(n * n)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 100])
    def test_uniform_state_closed_form(self, n):
        # sum (N-2n)^2 / (N+1) collapses to N(N+2)/3.
        exact = uniform_state_variance_exact(n)
        assert exact == pytest.approx(n * (n + 2) / 3.0, rel=1e-15)
        assert variance_imbalance(maximally_entangled(n)) == pytest.approx(
            exact, abs=1e-9
        )

    @given(state=random_states())
    def test_nonnegative_and_bounded(self, state):
        var = variance_imbalance(state)
        assert 0.0 <= var <= state.n_total**2 * (1.0 + 1e-12) + 1e-12

    @given(state=random_states())
    def test_matches_brute_force(self, state):
        _, var = brute_force_moments(state.coefficients)
        assert variance_imbalance(state) == pytest.approx(var, abs=1e-8)


class TestEntanglementEntropy:
    def test_fock_state_unentangled(self):
        assert entanglement_entropy(fock(9, 0)) == 0.0
        assert entanglement_entropy(fock(4, 5)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 400])
    def test_cat_state_is_one_bit(self, n):
        assert entanglement_entropy(cat(n)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 400])
    def test_uniform_state_saturates_bound(self, n):
        assert entanglement_entropy(maximally_entangled(n)) == pytest.approx(
            math.log2(n + 1), abs=1e-12
        )

    def test_zero_weights_contribute_exactly_zero(self):
        # Identical weights with and without interleaved exact zeros.
        a = StateVector(np.array([math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)]))
        b = StateVector(np.array([math.sqrt(0.5), math.sqrt(0.5)]))
        assert entanglement_entropy(a) == entanglement_entropy(b)

    @given(state=random_states())
    def test_bounds(self, state):
        e = entanglement_entropy(state)
        assert 0.0 <= e <= math.log2(state.dim) + 1e-12

    @given(state=random_states())
    def test_zero_variance_implies_zero_entanglement(self, state):
        if variance_imbalance(state) == 0.0:
            assert entanglement_entropy(state) <= 1e-12


class TestRecord:
    def test_fock_initial_record(self):
        n = 10
        h = build_hamiltonian(CouplingConfig(n, k=2.0, delta_mu=0.0, e_j=1.5))
        r = single_row(fock(n, 0), 0.0, h)
        assert r.imbalance == float(n)
        assert r.imbalance_scaled == 1.0
        assert r.variance == 0.0
        assert r.entanglement_bits == 0.0
        assert r.energy == pytest.approx(2.0 * n * n / 8.0, rel=1e-15)
        assert r.norm_error <= 1e-15

    def test_energy_of_factory_states(self):
        n = 8
        h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=0.4, e_j=0.9))
        dense = h.to_dense()
        for state in (fock(3, 5), cat(n), maximally_entangled(n)):
            c = state.coefficients
            expected = (np.conj(c) @ dense @ c).real
            r = single_row(state, 1.0, h)
            assert r.energy == pytest.approx(expected, rel=1e-13)

    def test_empty_system_record(self):
        h = build_hamiltonian(CouplingConfig(0, k=1.0, delta_mu=1.0, e_j=1.0))
        r = single_row(fock(0, 0), 0.0, h)
        assert (
            r.imbalance,
            r.imbalance_scaled,
            r.variance,
            r.entanglement_bits,
            r.energy,
        ) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_dimension_mismatch_rejected(self):
        h = build_hamiltonian(CouplingConfig(3, e_j=1.0))
        with pytest.raises(ValueError):
            single_row(fock(1, 1), 0.0, h)


class TestObservableSeries:
    @pytest.mark.parametrize(
        "columns, message",
        [
            ([np.zeros((2, 3))] + [np.zeros(3)] * 6, "^t must be one-dimensional$"),
            ([np.zeros(3)] * 6 + [np.zeros(2)], "^all series columns must have equal length$"),
        ],
        ids=["2-d", "unequal"],
    )
    def test_malformed_columns_rejected(self, columns, message):
        with pytest.raises(ValueError, match=message):
            ObservableSeries(*columns)

    def test_columns_are_read_only_views_of_the_callers_arrays(self):
        a = np.arange(4.0)
        series = ObservableSeries(*[a] * 7)
        assert a.flags.writeable
        for name in ObservableSeries.COLUMNS:
            column = getattr(series, name)
            assert not column.flags.writeable and np.shares_memory(column, a)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        a[0] = 5.0  # the caller may still write, and the series shows it
        assert series.t[0] == 5.0


class TestComputeSeries:
    def test_rows_match_scalar_records(self):
        n = 14
        h = build_hamiltonian(CouplingConfig(n, k=0.7, delta_mu=0.2, e_j=1.1))
        d = eigendecompose(h)
        t = np.linspace(0.0, 8.0, 40)
        series = compute_series(evolve_series(d, fock(9, 5), t), t, h)
        for j in (0, 7, 19, 39):
            r = single_row(evolve(d, fock(9, 5), t[j]), t[j], h)
            assert series.imbalance[j] == pytest.approx(r.imbalance, abs=1e-13)
            assert series.variance[j] == pytest.approx(r.variance, abs=1e-11)
            assert series.entanglement_bits[j] == pytest.approx(
                r.entanglement_bits, abs=1e-13
            )
            assert series.norm_error[j] == pytest.approx(r.norm_error, abs=1e-15)
            assert series.energy[j] == pytest.approx(r.energy, abs=1e-12)

    def test_grid_stays_writeable_and_shared(self):
        h = build_hamiltonian(CouplingConfig(4, k=1.0, e_j=1.0))
        t = np.linspace(0.0, 2.0, 9)
        series = compute_series(evolve_series(eigendecompose(h), fock(4, 0), t), t, h)
        assert t.flags.writeable and not series.t.flags.writeable
        assert np.shares_memory(series.t, t)

    def test_records_round_trip(self):
        n = 5
        h = build_hamiltonian(CouplingConfig(n, k=1.0, e_j=2.0))
        d = eigendecompose(h)
        t = np.linspace(0.0, 2.0, 9)
        series = compute_series(evolve_series(d, cat(n), t), t, h)
        assert len(series) == 9
        r = single_row(evolve(d, cat(n), t[3]), t[3], h)
        assert r.t == t[3]
        assert r.variance == pytest.approx(series.variance[3], abs=1e-12)

    def test_length_mismatch_rejected(self):
        h = build_hamiltonian(CouplingConfig(2, e_j=1.0))
        d = eigendecompose(h)
        blocks = evolve_series(d, fock(2, 0), [0.0, 1.0])
        with pytest.raises(ValueError):
            compute_series(blocks, [0.0], h)

    def test_grid_other_than_the_propagators_rejected(self):
        # Same length, other times: the series would carry times its states
        # are not at.
        h = build_hamiltonian(CouplingConfig(10, k=1.0, e_j=1.0))
        d = eigendecompose(h)
        t = np.linspace(0.0, 3.0, 7)
        propagator = evolve_series(d, fock(10, 0), t)
        assert propagator.t is t
        with pytest.raises(ValueError, match="^t_grid is not the grid the propagator was built on$"):
            compute_series(propagator, np.linspace(0.0, 6.0, 7), h)
        assert np.array_equal(compute_series(propagator, list(t), h).t, t)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("2-d grid", "^t_grid must be one-dimensional$"),
            ("other N", "^state dimension does not match Hamiltonian$"),
            ("fewer times", "^t_grid and states must have equal length$"),
        ],
    )
    def test_inconsistent_input_rejected(self, case, message):
        h = build_hamiltonian(CouplingConfig(3, k=1.0, e_j=1.0))
        other = eigendecompose(build_hamiltonian(CouplingConfig(4, k=1.0, e_j=1.0)))
        t = np.linspace(0.0, 1.0, 3)
        blocks, grid = {
            "2-d grid": ([np.ones((4, 3), complex)], t[None]),
            "other N": (evolve_series(other, fock(4, 0), t), t),
            "fewer times": ([np.ones((4, 2), complex)], t),
        }[case]
        with pytest.raises(ValueError, match=message):
            compute_series(blocks, grid, h)

    @pytest.mark.parametrize("where", [0, 1])
    def test_zero_norm_refused(self, where):
        # A zero column in either block; the norm is checked once all are in.
        h = build_hamiltonian(CouplingConfig(3, k=1.0, e_j=1.0))
        blocks = [np.ones((4, 3), complex), np.ones((4, 2), complex)]
        blocks[where][:, 1] = 0.0
        with pytest.raises(ZeroNormError, match="^state has zero norm$"):
            compute_series(blocks, np.arange(5.0), h)

    def test_memory_holds_the_columns_and_one_block(self):
        # Beside one block's buffers, which a grid of two blocks already
        # holds, a longer grid adds only its six output rows: no temporary
        # as long as the grid.
        n = 20
        h = build_hamiltonian(CouplingConfig(n, k=1.0, e_j=1.0))
        d = eigendecompose(h)
        short, long = 2 * block_rows(n + 1, 2**62), 50_000
        peaks = []
        for steps in (short, short, long):  # the first run warms caches
            t = np.linspace(0.0, 30.0, steps)
            tracemalloc.start()
            try:
                compute_series(evolve_series(d, fock(n, 0), t), t, h)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] <= 6 * 8 * (long - short) + 16 * 1024


class TestReduceBlocks:
    def test_workspace_reuse_matches_blocks_alone(self):
        # A dense block, then a shorter one with exact zeros and sub-floor
        # weights where the first had weight: stale scratch from the first
        # block (entropy terms, mask, row slices) would show in the second.
        n = 7
        h = build_hamiltonian(CouplingConfig(n, k=0.7, delta_mu=0.2, e_j=1.1))
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((2, 5, n + 1))
        sparse = np.zeros((2, 3, n + 1))
        sparse[0, :, 2] = 1.0
        sparse[:, 1, 5] = rng.standard_normal(2)
        sparse[1, 2, ::3] = 1e-160  # weight 1e-320, below the entropy floor
        t = np.arange(8.0)
        # Blocks are basis-major, one column per time: feed the transposes.
        dense, sparse = ((a[0] + 1j * a[1]).T for a in (dense, sparse))
        both = compute_series([dense, sparse], t, h)
        first = compute_series([dense], t[:5], h)
        second = compute_series([sparse], t[5:], h)
        for name in ObservableSeries.COLUMNS:
            want = np.concatenate((getattr(first, name), getattr(second, name)))
            assert np.array_equal(getattr(both, name), want), name


def _fock_blocks():
    # Hand-made Fock-basis blocks: random, then exact zeros and sub-floor
    # weights (1e-320), then a partial block.
    n = 40
    h = build_hamiltonian(CouplingConfig(n, k=0.7, delta_mu=0.2, e_j=1.1))
    rng = np.random.default_rng(19)
    blocks = [rng.standard_normal((n + 1, w)) + 1j * rng.standard_normal((n + 1, w))
              for w in (64, 64, 17)]
    blocks[1][::2, ::3] = 0.0
    blocks[1][1::4, 1::3] = 1e-160
    blocks[1][:, 2::3] *= 1e-150  # every weight of these times sub-floor but one
    blocks[1][7, 2::3] = 1.0
    return h, blocks, Basis(n + 1, np.arange(n + 1)), blocks


def _propagated_blocks(n, k, e_j, dmu, initial, sector, windowed):
    h = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j))
    t = np.linspace(0.0, 2.0, 2 * block_rows(n + 1, 2**62) + 17)  # ends in a partial block
    propagator = evolve_series(eigendecompose(h), parse_state(initial, n), t)
    assert propagator.basis.sector == sector
    assert (propagator.basis.kept_rows < n + 1) == windowed
    # Iterating again yields the same bits; each block is overwritten by the next.
    return h, [c.copy() for c in propagator], propagator.basis, propagator


LONGDOUBLE_CASES = {
    "fock-list": _fock_blocks,
    "fock-split": lambda: _propagated_blocks(200, 1.0, 100.0, 0.0, "fock:150,50", None, False),
    "fock-biased": lambda: _propagated_blocks(200, 1.0, 100.0, 0.3, "fock:150,50", None, False),
    "sector-even": lambda: _propagated_blocks(201, 1.0, 100.0, 0.0, "cat", "even", False),
    "window": lambda: _propagated_blocks(100, 100.0, 1.0, 0.3, "fock:100,0", None, True),
    "window-split": lambda: _propagated_blocks(100, 100.0, 1.0, 0.0, "fock:74,26", None, True),
    "window-sector": lambda: _propagated_blocks(100, 100.0, 1.0, 0.0, "cat", "even", True),
    # Rows 0-4 and 96-100: a row set with a gap.
    "window-gapped": lambda: _propagated_blocks(100, 100.0, 1.0, 0.3, "cat", None, True),
}


@pytest.mark.parametrize("case", LONGDOUBLE_CASES)
def test_block_reduction_matches_longdouble(case):
    # The same blocks reduced in float64 by compute_series and in long double
    # from their Fock weights. Each column may err by eps * dim times its
    # scale: N for the imbalance, N^2 for the variance, log2(N+1) bits, the
    # Hamiltonian's row-sum bound for the energy.
    h, blocks, basis, source = LONGDOUBLE_CASES[case]()
    # A propagator is reduced on its own grid, hand-made blocks on any.
    steps = sum(c.shape[1] for c in blocks)
    t = source.t if hasattr(source, "t") else np.arange(steps, dtype=float)
    got = compute_series(source, t, h)
    want = longdouble_series(blocks, basis, h)
    n, eps = h.n_total, np.finfo(float).eps
    scale = {
        "imbalance": n, "imbalance_scaled": 1.0, "variance": n * n,
        "entanglement_bits": math.log2(n + 1), "norm_error": 1.0,
        "energy": np.abs(h.diagonal).max() + 2.0 * np.abs(h.offdiagonal).max(),
    }
    for name, ref in want.items():
        bound = eps * h.dim * max(1.0, scale[name])
        assert np.abs(getattr(got, name) - ref).max() <= bound, name


class TestTrajectorySymmetries:
    def test_mirror_antisymmetry_without_bias(self):
        n = 30
        h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=0.0, e_j=7.0))
        d = eigendecompose(h)
        t = np.linspace(0.0, 20.0, 400)
        a = compute_series(evolve_series(d, fock(21, 9), t), t, h)
        b = compute_series(evolve_series(d, fock(9, 21), t), t, h)
        assert np.abs(a.imbalance + b.imbalance).max() <= 1e-9
        assert np.abs(a.variance - b.variance).max() <= 1e-9
        assert np.abs(a.entanglement_bits - b.entanglement_bits).max() <= 1e-9

    @pytest.mark.parametrize("initial", ["cat", "me", "half"])
    def test_symmetric_initial_states_stay_balanced(self, initial):
        n = 30
        h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=0.0, e_j=7.0))
        d = eigendecompose(h)
        psi = {"cat": cat(n), "me": maximally_entangled(n), "half": fock(15, 15)}[
            initial
        ]
        t = np.linspace(0.0, 20.0, 400)
        series = compute_series(evolve_series(d, psi, t), t, h)
        assert np.abs(series.imbalance).max() <= 1e-9

    def test_entanglement_stays_in_range_from_fock_start(self):
        n = 25
        h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=0.0, e_j=5.0))
        d = eigendecompose(h)
        t = np.linspace(0.0, 40.0, 800)
        series = compute_series(evolve_series(d, fock(n, 0), t), t, h)
        assert series.entanglement_bits.min() >= 0.0
        assert series.entanglement_bits.max() <= math.log2(n + 1) + 1e-12
