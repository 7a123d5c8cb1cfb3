"""Independent reference implementations used only by the tests.

These deliberately avoid the library's spectral path: the propagator oracle
exponentiates the dense Hamiltonian by scaling and squaring, and the moment
oracles are direct sums over the basis.
"""

import numpy as np


def expm_scaling_squaring(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential: scale down to norm <= 1/2, Taylor, square."""
    a = np.asarray(a, dtype=np.complex128)
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    m = a / (2.0**squarings)
    n = a.shape[0]
    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for j in range(1, 64):
        term = term @ m / j
        result = result + term
        if np.linalg.norm(term, 1) <= 1e-20 * max(1.0, np.linalg.norm(result, 1)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def propagate_dense(h_dense: np.ndarray, c0: np.ndarray, t: float) -> np.ndarray:
    return expm_scaling_squaring(-1j * t * h_dense) @ c0


def probabilities(coefficients) -> np.ndarray:
    """|c_n|^2, computed as re^2 + im^2 (no intermediate modulus)."""
    c = np.asarray(coefficients)
    return c.real**2 + c.imag**2


def quadratic_form(h_dense: np.ndarray, x: np.ndarray) -> float:
    """Re <x|H|x> with the dense matrix."""
    return float((np.conj(x) @ h_dense @ x).real)


def brute_force_moments(coefficients) -> tuple[float, float]:
    """(mean, variance) of N1 - N2 by direct summation over the basis."""
    c = np.asarray(coefficients)
    n_total = c.size - 1
    p = [abs(cn) ** 2 for cn in c]
    total = sum(p)
    mean = sum(pn * (n_total - 2 * i) for i, pn in enumerate(p)) / total
    second = sum(pn * (n_total - 2 * i) ** 2 for i, pn in enumerate(p)) / total
    return mean, second - mean**2


def uniform_state_variance_exact(n_total: int) -> float:
    """sum_n (N-2n)^2 / (N+1) as an exact integer ratio."""
    total = sum((n_total - 2 * i) ** 2 for i in range(n_total + 1))
    return total / (n_total + 1)
