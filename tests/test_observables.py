import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.observables import (
    ObservableRecord,
    ObservableSeries,
    compute_series,
    entanglement_entropy,
    expectation_imbalance,
    record,
    reduce_blocks,
    variance_imbalance,
)
from bhdimer.spectral import StateVector, eigendecompose, evolve, evolve_series
from bhdimer.states import cat, fock, maximally_entangled

from oracles import brute_force_moments, uniform_state_variance_exact


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
        r = record(fock(n, 0), 0.0, h)
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
            r = record(state, 1.0, h)
            assert r.energy == pytest.approx(expected, rel=1e-13)

    def test_empty_system_record(self):
        h = build_hamiltonian(CouplingConfig(0, k=1.0, delta_mu=1.0, e_j=1.0))
        r = record(fock(0, 0), 0.0, h)
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
            record(fock(1, 1), 0.0, h)


class TestComputeSeries:
    def test_rows_match_scalar_records(self):
        n = 14
        h = build_hamiltonian(CouplingConfig(n, k=0.7, delta_mu=0.2, e_j=1.1))
        d = eigendecompose(h)
        t = np.linspace(0.0, 8.0, 40)
        states = evolve_series(d, fock(9, 5), t)
        series = compute_series(states, t, h)
        for j in (0, 7, 19, 39):
            r = record(states[j], t[j], h)
            assert series.imbalance[j] == pytest.approx(r.imbalance, abs=1e-13)
            assert series.variance[j] == pytest.approx(r.variance, abs=1e-11)
            assert series.entanglement_bits[j] == pytest.approx(
                r.entanglement_bits, abs=1e-13
            )
            assert series.norm_error[j] == pytest.approx(r.norm_error, abs=1e-15)
            assert series.energy[j] == pytest.approx(r.energy, abs=1e-12)

    def test_records_round_trip(self):
        n = 5
        h = build_hamiltonian(CouplingConfig(n, k=1.0, e_j=2.0))
        d = eigendecompose(h)
        t = np.linspace(0.0, 2.0, 9)
        states = evolve_series(d, cat(n), t)
        series = compute_series(states, t, h)
        assert len(series) == 9
        # record fills ObservableRecord from the columns in COLUMNS order.
        fields = tuple(f.name for f in dataclasses.fields(ObservableRecord))
        assert fields == series.COLUMNS
        r = record(states[3], t[3], h)
        assert r.t == t[3]
        assert r.variance == pytest.approx(series.variance[3], abs=1e-12)

    def test_length_mismatch_rejected(self):
        h = build_hamiltonian(CouplingConfig(2, e_j=1.0))
        d = eigendecompose(h)
        states = evolve_series(d, fock(2, 0), [0.0, 1.0])
        with pytest.raises(ValueError):
            compute_series(states, [0.0], h)


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
        both = reduce_blocks([(dense[0], dense[1]), (sparse[0], sparse[1])], t, h)
        first = reduce_blocks([(dense[0], dense[1])], t[:5], h)
        second = reduce_blocks([(sparse[0], sparse[1])], t[5:], h)
        for name in ObservableSeries.COLUMNS:
            want = np.concatenate((getattr(first, name), getattr(second, name)))
            assert np.array_equal(getattr(both, name), want), name


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
