import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhdimer import spectral
from bhdimer.cli import main
from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.observables import (
    entanglement_entropy,
    expectation_imbalance,
    variance_imbalance,
)
from bhdimer.spectral import (
    ConvergenceError,
    StateVector,
    eigendecompose,
    evolve,
    evolve_series,
)
from bhdimer.states import fock

from oracles import probabilities, propagate_dense, quadratic_form


def decompose(n, k=0.0, dmu=0.0, e_j=0.0):
    h = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j))
    return h, eigendecompose(h)


def orthonormality_deviation(v):
    return np.abs(v.T @ v - np.eye(v.shape[0])).max()


def max_residual(h, decomp, chunk=256):
    # Column chunks keep the temporaries small at large N.
    worst = 0.0
    for j in range(0, decomp.dim, chunk):
        v = decomp.eigenvectors[:, j : j + chunk]
        hv = h.diagonal[:, None] * v
        if h.offdiagonal.size:
            hv[:-1] += h.offdiagonal[:, None] * v[1:]
            hv[1:] += h.offdiagonal[:, None] * v[:-1]
        hv -= decomp.eigenvalues[None, j : j + chunk] * v
        worst = max(worst, np.linalg.norm(hv, axis=0).max())
    return worst


class TestEigendecompose:
    def test_two_level_analytic(self):
        # k=0.8 at N=1 gives [[0.1, -0.5], [-0.5, 0.1]].
        _, d = decompose(1, k=0.8, e_j=1.0)
        np.testing.assert_allclose(d.eigenvalues, [-0.4, 0.6], atol=1e-12)
        s = math.sqrt(0.5)
        np.testing.assert_allclose(
            d.eigenvectors, [[s, s], [s, -s]], atol=1e-12
        )

    def test_three_level_analytic(self):
        _, d = decompose(2, k=8.0, e_j=2.0)
        expected = [2.0 - 2.0 * math.sqrt(2.0), 4.0, 2.0 + 2.0 * math.sqrt(2.0)]
        np.testing.assert_allclose(d.eigenvalues, expected, atol=1e-12)

    def test_diagonal_matrix_sorted_with_permuted_identity(self):
        h, d = decompose(4, k=1.0, dmu=0.25, e_j=0.0)
        np.testing.assert_array_equal(d.eigenvalues, np.sort(h.diagonal))
        assert set(map(tuple, d.eigenvectors.T.tolist())) == {
            tuple(row) for row in np.eye(5).tolist()
        }

    def test_single_state_system(self):
        h, d = decompose(0, k=2.0, dmu=1.0)
        np.testing.assert_array_equal(d.eigenvalues, h.diagonal)
        np.testing.assert_array_equal(d.eigenvectors, [[1.0]])

    def test_deterministic_bitwise(self):
        _, d1 = decompose(60, k=1.3, dmu=0.2, e_j=2.1)
        _, d2 = decompose(60, k=1.3, dmu=0.2, e_j=2.1)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_eigenvalues_sorted(self):
        _, d = decompose(80, k=0.7, dmu=-0.4, e_j=1.9)
        assert np.all(np.diff(d.eigenvalues) >= 0.0)

    def test_lapack_failure_is_diagnosed(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectral, "eigh", fail)
        h = build_hamiltonian(CouplingConfig(12, k=1.0, e_j=1.0))
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigendecompose(h)
        rc = main(["--n", "12", "--ratio", "1", "--t-max", "5", "--steps", "100",
                   "--window", "21"])
        assert rc == 1
        assert "solver failure" in capsys.readouterr().err

    @given(
        n=st.integers(1, 60),
        k=st.floats(-5, 5),
        dmu=st.floats(-2, 2),
        e_j=st.floats(-5, 5),
    )
    @settings(max_examples=30)
    def test_orthonormality_and_residual(self, n, k, dmu, e_j):
        h, d = decompose(n, k=k, dmu=dmu, e_j=e_j)
        assert orthonormality_deviation(d.eigenvectors) <= 1e-12
        lam_max = max(1.0, np.abs(d.eigenvalues).max())
        assert max_residual(h, d) <= 1e-11 * lam_max

    def test_agrees_with_lapack(self):
        h, d = decompose(150, k=2.4, dmu=0.3, e_j=1.1)
        reference = np.linalg.eigvalsh(h.to_dense())
        scale = max(1.0, np.abs(reference).max())
        np.testing.assert_allclose(d.eigenvalues, reference, atol=1e-12 * scale)


class TestLargeN:
    """Invariants of the parity-block solver at sizes beyond the presets."""

    N = 4000

    @pytest.fixture(scope="class")
    def large(self):
        return decompose(self.N, k=1.0, e_j=float(self.N))

    def test_every_eigenvector_has_exact_parity(self, large):
        v = large[1].eigenvectors
        rev = v[::-1]
        assert all(
            np.array_equal(rev[:, j], v[:, j]) or np.array_equal(rev[:, j], -v[:, j])
            for j in range(v.shape[1])
        )

    def test_tunneling_sign_flip_is_bitwise(self, large):
        n = self.N
        _, d_plus = large
        _, d_minus = decompose(n, k=1.0, e_j=-float(n))
        psi = fock(n - 100, 100)
        flipped = StateVector((-1.0) ** np.arange(n + 1) * psi.coefficients)
        for t in (0.3, 2.0):
            a = evolve(d_plus, psi, t)
            b = evolve(d_minus, flipped, t)
            assert np.array_equal(
                probabilities(a.coefficients), probabilities(b.coefficients)
            )

    def test_residual(self, large):
        h, d = large
        assert max_residual(h, d) <= 1e-9 * max(1.0, np.abs(d.eigenvalues).max())

    def test_orthonormality(self):
        _, d = decompose(2000, k=1.0, e_j=2000.0)
        assert orthonormality_deviation(d.eigenvectors) <= 1e-10


class TestEvolve:
    def test_t_zero_is_identity(self):
        _, d = decompose(30, k=0.5, e_j=1.0)
        psi = fock(13, 17)
        out = evolve(d, psi, 0.0)
        assert np.abs(out.coefficients - psi.coefficients).max() <= 1e-13

    def test_two_level_rabi_solution(self):
        _, d = decompose(1, e_j=1.0)
        for t in (0.0, 0.3, 1.7, math.pi, 5.0):
            c = evolve(d, fock(1, 0), t).coefficients
            expected = np.array([math.cos(t / 2.0), 1j * math.sin(t / 2.0)])
            np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_rabi_imbalance_is_cos_t(self):
        _, d = decompose(1, e_j=1.0)
        for t in (0.2, 1.0, math.pi, 4.4):
            s = evolve(d, fock(1, 0), t)
            assert expectation_imbalance(s) == pytest.approx(math.cos(t), abs=1e-12)

    def test_stationary_eigenvector(self):
        h, d = decompose(12, k=1.1, dmu=0.2, e_j=0.9)
        m = 5
        psi = StateVector(d.eigenvectors[:, m])
        t = 3.7
        out = evolve(d, psi, t)
        expected = np.exp(-1j * d.eigenvalues[m] * t) * d.eigenvectors[:, m]
        np.testing.assert_allclose(out.coefficients, expected, atol=1e-12)
        assert variance_imbalance(out) == pytest.approx(variance_imbalance(psi), abs=1e-10)
        assert entanglement_entropy(out) == pytest.approx(
            entanglement_entropy(psi), abs=1e-10
        )

    def test_norm_preserved(self):
        _, d = decompose(200, k=1.0, e_j=50.0)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(evolve(d, fock(200, 0), t).norm() - 1.0) <= 1e-12

    def test_two_step_composition(self):
        _, d = decompose(40, k=0.8, dmu=0.1, e_j=2.0)
        psi = fock(25, 15)
        t1, t2 = 1.3, 2.9
        via_two = evolve(d, evolve(d, psi, t1), t2)
        direct = evolve(d, psi, t1 + t2)
        assert np.abs(via_two.coefficients - direct.coefficients).max() <= 1e-9

    def test_energy_conserved_along_trajectory(self):
        h, d = decompose(80, k=1.0, e_j=25.0)
        psi = fock(80, 0)
        e0 = quadratic_form(h.to_dense(), psi.coefficients)
        for t in np.linspace(0.0, 20.0, 41):
            e = quadratic_form(h.to_dense(), evolve(d, psi, t).coefficients)
            assert abs(e - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_dimension_mismatch_rejected(self):
        _, d = decompose(4, e_j=1.0)
        with pytest.raises(ValueError):
            evolve(d, fock(2, 1), 1.0)

    def test_non_finite_time_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve(d, fock(2, 0), math.inf)

    def test_phase_overflow_rejected(self):
        _, d = decompose(4, k=1.0, e_j=1.0)
        with pytest.raises(ValueError, match="phases overflow"):
            evolve(d, fock(4, 0), 1e308)

    def test_matches_dense_exponential_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(1, 13))
            h, d = decompose(
                n,
                k=float(rng.uniform(-2, 2)),
                dmu=float(rng.uniform(-1, 1)),
                e_j=float(rng.uniform(-2, 2)),
            )
            c0 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            c0 /= np.linalg.norm(c0)
            psi = StateVector(c0)
            for t in (0.1, 1.0, 10.0):
                expected = propagate_dense(h.to_dense(), c0, t)
                got = evolve(d, psi, t).coefficients
                assert np.abs(got - expected).max() <= 1e-8

    def test_tunneling_sign_flip_equivalence_is_exact(self):
        n = 60
        _, d_plus = decompose(n, k=1.0, e_j=30.0)
        _, d_minus = decompose(n, k=1.0, e_j=-30.0)
        psi = fock(45, 15)
        flipped = StateVector((-1.0) ** np.arange(n + 1) * psi.coefficients)
        for t in (0.4, 2.0, 13.0):
            a = evolve(d_plus, psi, t)
            b = evolve(d_minus, flipped, t)
            assert np.array_equal(
                probabilities(a.coefficients), probabilities(b.coefficients)
            )
            assert expectation_imbalance(a) == expectation_imbalance(b)
            assert variance_imbalance(a) == variance_imbalance(b)
            assert entanglement_entropy(a) == entanglement_entropy(b)


class TestEvolveSeries:
    def test_empty_grid(self):
        _, d = decompose(3, e_j=1.0)
        assert evolve_series(d, fock(3, 0), []) == []

    def test_single_point_grid(self):
        _, d = decompose(3, e_j=1.0)
        (out,) = evolve_series(d, fock(3, 0), [0.0])
        assert np.abs(out.coefficients - fock(3, 0).coefficients).max() <= 1e-13

    def test_bitwise_consistency_with_single_shot(self):
        _, d = decompose(17, k=0.6, dmu=0.05, e_j=1.8)
        psi = fock(9, 8)
        t1 = 2.71
        series = evolve_series(d, psi, [0.0, t1])
        single = evolve(d, psi, t1)
        assert np.array_equal(series[1].coefficients, single.coefficients)

    def test_rabi_grid_imbalance(self):
        _, d = decompose(1, e_j=1.0)
        states = evolve_series(d, fock(1, 0), [0.0, math.pi, 2.0 * math.pi])
        values = [expectation_imbalance(s) for s in states]
        np.testing.assert_allclose(values, [1.0, -1.0, 1.0], atol=1e-12)

    def test_decreasing_grid_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve_series(d, fock(2, 0), [0.0, 2.0, 1.0])

    def test_non_finite_grid_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve_series(d, fock(2, 0), [0.0, math.nan])

    def test_phase_overflow_rejected(self):
        _, d = decompose(4, k=1.0, e_j=1.0)
        with pytest.raises(ValueError, match="phases overflow"):
            evolve_series(d, fock(4, 0), [0.0, 1e308])

    def test_unitarity_over_dense_grid(self):
        _, d = decompose(50, k=1.0, e_j=12.0)
        t = np.linspace(0.0, 30.0, 2000)
        for s in evolve_series(d, fock(50, 0), t)[::97]:
            assert abs(s.norm() - 1.0) <= 1e-12
