import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhdimer.states import cat, fock, maximally_entangled, parse_state


class TestFock:
    def test_examples(self):
        np.testing.assert_array_equal(fock(2, 0).coefficients, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(fock(0, 2).coefficients, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(fock(1, 1).coefficients, [0.0, 1.0, 0.0])

    def test_vacuum(self):
        np.testing.assert_array_equal(fock(0, 0).coefficients, [1.0])

    @given(m=st.integers(0, 40), n=st.integers(0, 40))
    def test_index_reversal(self, m, n):
        np.testing.assert_array_equal(
            fock(m, n).coefficients, fock(n, m).coefficients[::-1]
        )

    @given(m=st.integers(0, 40), n=st.integers(0, 40))
    def test_exact_norm(self, m, n):
        assert fock(m, n).norm() == 1.0

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            fock(-1, 2)
        with pytest.raises(ValueError):
            fock(2, -1)


class TestCat:
    def test_example(self):
        s = math.sqrt(0.5)
        np.testing.assert_array_equal(cat(2).coefficients, [s, 0.0, s])

    @given(n=st.integers(1, 200))
    def test_norm(self, n):
        assert abs(cat(n).norm() - 1.0) <= 1e-15

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            cat(0)


class TestMaximallyEntangled:
    def test_example(self):
        expected = np.full(3, 1.0 / math.sqrt(3.0))
        np.testing.assert_array_equal(maximally_entangled(2).coefficients, expected)

    def test_empty_system_allowed(self):
        np.testing.assert_array_equal(maximally_entangled(0).coefficients, [1.0])

    @given(n=st.integers(0, 200))
    def test_norm(self, n):
        assert abs(maximally_entangled(n).norm() - 1.0) <= 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            maximally_entangled(-1)


class TestParseState:
    def test_fock_descriptor(self):
        s = parse_state("fock:3,2", 5)
        np.testing.assert_array_equal(s.coefficients, fock(3, 2).coefficients)

    def test_whitespace_tolerated(self):
        s = parse_state("  fock: 3 , 2 ", 5)
        np.testing.assert_array_equal(s.coefficients, fock(3, 2).coefficients)

    def test_cat_descriptor(self):
        np.testing.assert_array_equal(
            parse_state("cat", 4).coefficients, cat(4).coefficients
        )

    def test_me_descriptor(self):
        np.testing.assert_array_equal(
            parse_state("me", 4).coefficients, maximally_entangled(4).coefficients
        )

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError, match="fixes N"):
            parse_state("fock:3,2", 6)

    # fock:5,-2 and fock:-1,4 carry N = 3 bosons: fock itself refuses them.
    @pytest.mark.parametrize(
        "bad", ["", "fock:", "fock:1", "fock:a,b", "coherent", "fock:1,-2", "fock:5,-2", "fock:-1,4"]
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_state(bad, 3)
