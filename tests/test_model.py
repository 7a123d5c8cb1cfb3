import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhdimer.model import (
    CouplingConfig,
    TridiagonalHamiltonian,
    build_hamiltonian,
    imbalance_diagonal,
)

couplings = st.floats(-10.0, 10.0, allow_nan=False)


class TestCouplingConfig:
    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            CouplingConfig(-1)

    def test_non_integer_n_rejected(self):
        with pytest.raises(TypeError):
            CouplingConfig(2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["k", "delta_mu", "e_j"])
    def test_non_finite_couplings_rejected(self, name, bad):
        with pytest.raises(ValueError):
            CouplingConfig(3, **{name: bad})

    def test_ratio(self):
        assert CouplingConfig(10, k=2.0, e_j=4.0).ratio == 0.5
        assert CouplingConfig(10, k=2.0, e_j=0.0).ratio == math.inf


class TestBuildHamiltonian:
    def test_interacting_example(self):
        h = build_hamiltonian(CouplingConfig(2, k=8.0, delta_mu=0.0, e_j=2.0))
        np.testing.assert_array_equal(h.diagonal, [4.0, 0.0, 4.0])
        np.testing.assert_array_equal(h.offdiagonal, [-math.sqrt(2.0)] * 2)

    def test_bias_only_example(self):
        h = build_hamiltonian(CouplingConfig(2, k=0.0, delta_mu=2.0, e_j=0.0))
        np.testing.assert_array_equal(h.diagonal, [-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(h.offdiagonal, [0.0, 0.0])

    def test_tunneling_only_example(self):
        h = build_hamiltonian(CouplingConfig(1, k=0.0, delta_mu=0.0, e_j=1.0))
        np.testing.assert_array_equal(h.diagonal, [0.0, 0.0])
        np.testing.assert_array_equal(h.offdiagonal, [-0.5])

    def test_empty_system(self):
        h = build_hamiltonian(CouplingConfig(0, k=3.0, delta_mu=1.0, e_j=2.0))
        np.testing.assert_array_equal(h.diagonal, [0.0])
        assert h.offdiagonal.size == 0

    @given(n=st.integers(0, 200), k=couplings, e_j=couplings)
    def test_mirror_symmetry_without_bias(self, n, k, e_j):
        h = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=0.0, e_j=e_j))
        np.testing.assert_array_equal(h.diagonal, h.diagonal[::-1])
        np.testing.assert_array_equal(h.offdiagonal, h.offdiagonal[::-1])

    @given(n=st.integers(0, 120), k=couplings, dmu=couplings, e_j=couplings)
    def test_tunneling_sign_flip_negates_offdiagonal_only(self, n, k, dmu, e_j):
        h_plus = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j))
        h_minus = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=-e_j))
        np.testing.assert_array_equal(h_plus.diagonal, h_minus.diagonal)
        np.testing.assert_array_equal(h_plus.offdiagonal, -h_minus.offdiagonal)

    @given(n=st.integers(1, 200), e_j=couplings)
    def test_edge_offdiagonal_value(self, n, e_j):
        h = build_hamiltonian(CouplingConfig(n, k=0.3, delta_mu=0.1, e_j=e_j))
        expected = -(e_j / 2.0) * math.sqrt(n)
        assert h.offdiagonal[0] == expected
        assert h.offdiagonal[-1] == expected

    def test_overflowing_couplings_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            build_hamiltonian(CouplingConfig(1000, k=1e308, e_j=1.0))


class TestTridiagonalHamiltonian:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TridiagonalHamiltonian([1.0, 2.0], [0.5, 0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TridiagonalHamiltonian([1.0, math.nan], [0.5])

    def test_to_dense_symmetric(self):
        h = build_hamiltonian(CouplingConfig(4, k=1.2, delta_mu=0.3, e_j=0.7))
        a = h.to_dense()
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_array_equal(np.diag(a), h.diagonal)
        np.testing.assert_array_equal(np.diag(a, 1), h.offdiagonal)


class TestImbalanceDiagonal:
    def test_examples(self):
        np.testing.assert_array_equal(imbalance_diagonal(2), [2.0, 0.0, -2.0])
        np.testing.assert_array_equal(imbalance_diagonal(0), [0.0])
        np.testing.assert_array_equal(
            imbalance_diagonal(5), [5.0, 3.0, 1.0, -1.0, -3.0, -5.0]
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            imbalance_diagonal(-3)
