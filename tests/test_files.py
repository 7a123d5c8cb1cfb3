"""The CSV value renderer against Python's own f"{v:.11e}"."""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhdimer import files
from bhdimer.cli import main

# np.float64 as the working type stands for a platform whose long double is
# a plain double: more values go to Python, the bytes must not change.
WORKS = [np.longdouble, np.float64]

LARGEST = np.finfo(np.float64).max
POWERS = np.array([10.0**k for k in range(-323, 309)])


@functools.cache
def renderer(work) -> files._Scientific:
    return files._Scientific(work)


def expected(values) -> bytes:
    return "".join(f"{v:.11e}\n" for v in values).encode()


def render(work, values) -> bytes:
    return renderer(work)(np.asarray(values, dtype=np.float64)[:, None])


def finite(bits) -> np.ndarray:
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("work", WORKS)
class TestScientific:
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_arbitrary_bit_patterns(self, work, bits):
        values = finite(bits)
        assert render(work, values) == expected(values)

    def test_many_random_bit_patterns(self, work):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = finite(bits)
        assert render(work, values) == expected(values)

    def test_zeros_subnormals_and_extremes(self, work):
        subnormals = [5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0)]
        values = [0.0, -0.0, 2.2250738585072014e-308, LARGEST, *subnormals]
        values += [-v for v in values]
        assert render(work, values) == expected(values)

    def test_powers_of_ten_and_neighbours(self, work):
        values = np.concatenate(
            [POWERS, np.nextafter(POWERS, np.inf), np.nextafter(POWERS, 0), -POWERS]
        )
        assert render(work, values) == expected(values)

    def test_exact_multiples_of_powers_of_ten(self, work):
        rng = np.random.default_rng(7)
        digits = np.concatenate([[1, 9, 10**11, 10**12 - 1], rng.integers(1, 10**12, 2000)])
        values = [float(d) * 10.0**k for d in digits for k in (-30, -11, -1, 0, 3, 11, 40)]
        assert render(work, values) == expected(values)

    def test_rounding_boundaries_and_ties(self, work):
        boundary = np.array([9.999999999995 * 10.0**k for k in range(-300, 300)])
        ties = [123456789012.5, 123456789013.5, 100000000000.5, 999999999999.5, 0.5, 2.5]
        values = np.concatenate(
            [boundary, np.nextafter(boundary, np.inf), np.nextafter(boundary, 0), ties]
        )
        assert render(work, values) == expected(values)

    def test_every_value_sent_to_python(self, work):
        scientific = files._Scientific(work)
        scientific.band = 1.0  # every scaled fraction lies within 1 of 1/2
        rng = np.random.default_rng(11)
        values = np.concatenate([finite(rng.integers(0, 2**64, 693, dtype=np.uint64)), POWERS])
        rows = values[: len(values) // 7 * 7].reshape(-1, 7)
        lines = [",".join(f"{v:.11e}" for v in row) + "\n" for row in rows]
        assert scientific(rows) == "".join(lines).encode()
        assert scientific.fallbacks == rows.size


def test_fig_rabi_is_rendered_without_python(tmp_path, capsys):
    # A band wide enough to send every value to Python still gives the right
    # bytes, only about 3x slower; this count is what shows it.
    scientific = files._csv_renderer()
    before = scientific.fallbacks
    assert main(["--preset", "fig-rabi", "--n", "400", "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert scientific.fallbacks == before
