"""Independent reference implementations used only by the tests.

These deliberately avoid the library's propagation path: the propagator
oracle exponentiates the dense Hamiltonian by scaling and squaring, the
spectral reference sums every eigencomponent at each time with its own
phases, the moment oracles are direct sums over the basis (one of them in
np.longdouble), and the Rabi limit has a closed form.
"""

import math

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


def spectral_reference(decomp, c0: np.ndarray, t_grid) -> np.ndarray:
    """c(t_j) = V (a * exp(-i lam t_j)), a = V^T c0, one column per time.

    Every eigencomponent is kept (no truncation) and each time gets its own
    phases: no block phase table, no parity split.
    """
    v = decomp.eigenvectors
    a = v.T @ np.asarray(c0, dtype=np.complex128)
    t = np.asarray(t_grid, dtype=np.float64)
    phases = np.exp(-1j * np.multiply.outer(decomp.eigenvalues, t))
    return v @ (a[:, None] * phases)


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


def longdouble_series(blocks, basis, h) -> dict:
    """Every observable column but t of complex blocks in basis, reduced in
    np.longdouble from the Fock weights they unfold to.

    basis holds rows, sector and dim as spectral.Basis does: a sector row
    i < dim // 2 stands for (e_i +- e_{dim-1-i})/sqrt2, odd sector minus.
    Each weight is normalized before the sums; a zero weight adds nothing
    to the entropy.
    """
    c = np.concatenate(blocks, axis=1)
    ld = np.longdouble
    rows, dim = np.asarray(basis.rows), basis.dim
    paired = rows < (dim // 2 if basis.sector else 0)
    scale = np.where(paired, np.sqrt(ld(0.5)), ld(1.0))[:, None]
    re, im = np.zeros((dim, c.shape[1]), dtype=ld), np.zeros((dim, c.shape[1]), dtype=ld)
    re[rows], im[rows] = c.real.astype(ld) * scale, c.imag.astype(ld) * scale
    sign = -1 if basis.sector == "odd" else 1
    mirror = dim - 1 - rows[paired]
    re[mirror], im[mirror] = sign * re[rows[paired]], sign * im[rows[paired]]
    weight = re**2 + im**2
    total = weight.sum(axis=0)
    p = weight / total
    d = (dim - 1 - 2 * np.arange(dim)).astype(ld)[:, None]
    mean = (d * p).sum(axis=0)
    logs = np.log2(np.where(p > 0, p, ld(1.0)))
    off = np.asarray(h.offdiagonal, dtype=ld)[:, None]
    coherence = (off * (re[:-1] * re[1:] + im[:-1] * im[1:])).sum(axis=0)
    columns = {
        "imbalance": mean,
        "imbalance_scaled": mean / (dim - 1) if dim > 1 else 0 * mean,
        "variance": np.maximum((d * d * p).sum(axis=0) - mean * mean, 0),
        "entanglement_bits": -(p * logs).sum(axis=0),
        "norm_error": np.abs(np.sqrt(total) - 1),
        "energy": (np.asarray(h.diagonal, dtype=ld)[:, None] * p).sum(axis=0)
        + 2 * coherence / total,
    }
    return {name: col.astype(np.float64) for name, col in columns.items()}


def uniform_state_variance_exact(n_total: int) -> float:
    """sum_n (N-2n)^2 / (N+1) as an exact integer ratio."""
    total = sum((n_total - 2 * i) ** 2 for i in range(n_total + 1))
    return total / (n_total + 1)


def rabi_limit_series(n_total: int, e_j: float, dmu: float, t) -> tuple:
    """(imbalance, variance, entanglement bits) of |N,0> at k = 0, in closed form.

    There H = -dmu J_z - e_j J_x rotates a spin N/2, so |N,0> stays a spin
    coherent state: s_z(t) = u^2 + (1 - u^2) cos(Omega t) with
    Omega = sqrt(e_j^2 + dmu^2) and u = dmu / Omega. Then <N1 - N2> = N s_z,
    the variance is N (1 - s_z^2), and the Fock weights are
    Binomial(N, (1 - s_z) / 2), whose Shannon entropy is the entanglement.
    """
    n = n_total
    omega = math.hypot(e_j, dmu)
    u = dmu / omega
    s = u * u + (1.0 - u * u) * np.cos(omega * np.asarray(t, dtype=np.float64))
    q = (1.0 - s) / 2.0
    k = np.arange(n + 1.0)[:, None]
    log_binom = np.array(
        [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in range(n + 1)]
    )[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = (
            log_binom
            + np.where(k > 0, k * np.log(q), 0.0)
            + np.where(k < n, (n - k) * np.log1p(-q), 0.0)
        )
        p = np.exp(log_p)
        bits = -np.where(p > 0.0, p * log_p, 0.0).sum(axis=0) / math.log(2.0)
    return n * s, n * (1.0 - s * s), bits
