"""Eigendecomposition and spectral time evolution for tridiagonal Hamiltonians.

Propagation works in the energy eigenbasis: diagonalize once, then

    |psi(t)> = sum_n a_n exp(-i lam_n t) |psi_n>,    a_n = <psi_n|psi(0)>.

`GridPropagator` is the one implementation. It computes the overlaps once and
drops the eigencomponents of smallest weight |a_n|^2 while their total stays
within DROPPED_WEIGHT_MAX, which bounds the error of every coefficient by
sqrt(DROPPED_WEIGHT_MAX) = 1e-14 (each row of V has unit norm). The dropped
set includes the exact zeros of a parity sector the initial state does not
touch. Times whose phases max|lam| * |t| overflow are refused.

`evolve` and `evolve_series` are GridPropagator.at: two real vector-matrix
products per time, so a state from one equals the same time from the other
bit for bit. `blocks` serves the uniform grid t_j = j*dt that every scenario
runs on. It walks the grid in blocks of block_rows(dim, steps) rows:
the phases of a block are one table exp(-i lam k dt), k < rows, built once
and multiplied by a_n exp(-i lam_n t_s) at the block start t_s, and the
coefficients of the whole block come from one real matrix product with the
kept eigenvectors. A block holds about BLOCK_ELEMENTS values per float
array, small enough for the elementwise passes of the propagation and the
observables to stay in cache, and at least 64 rows, so the product keeps a
tall matrix at large dim. Memory stays at a few blocks whatever the grid
length, and the time is spent in BLAS and numpy ufuncs, which release the
GIL.

The eigenpairs come from LAPACK through numpy.linalg.eigh. Before that, the
off-diagonal is mapped to -|e| by a diagonal +-1 similarity. The solver then
sees bit-identical input for either sign of the tunneling coupling, so the
equivalence "flip e_j and c_n -> (-1)^n c_n" holds exactly in floating
point, not merely to round-off.

A mirror-symmetric matrix (palindromic diagonal and off-diagonal, as the
dimer produces at zero bias) commutes with index reversal. It is
diagonalized as two half-size tridiagonal blocks, one per parity sector, so
every eigenvector is exactly even or odd under index reversal and
trajectories from interchanged modes mirror each other down to summation
round-off rather than eigenvector accuracy. Any other matrix goes to eigh
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh

__all__ = [
    "BLOCK_ELEMENTS",
    "ConvergenceError",
    "DROPPED_WEIGHT_MAX",
    "GridPropagator",
    "SpectralDecomposition",
    "StateVector",
    "block_rows",
    "eigendecompose",
    "evolve",
    "evolve_series",
]

_SQRT_HALF = math.sqrt(0.5)

# Largest total weight sum |a_n|^2 that GridPropagator may drop.
DROPPED_WEIGHT_MAX = 1e-28
# Grid times per block: rows * dim stays near 2^16 doubles (512 KiB) per
# array, unless block_rows' floor of 64 rows applies.
BLOCK_ELEMENTS = 2**16


class ConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver did not converge on a Hamiltonian block."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex coefficients c_n over the fixed-N basis |N-n, n>."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def dim(self) -> int:
        return self.coefficients.size

    @property
    def n_total(self) -> int:
        return self.dim - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full spectrum of a real symmetric tridiagonal matrix.

    eigenvalues   ascending, length dim
    eigenvectors  (dim, dim) orthonormal, column n is |psi_n>
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        v = np.asarray(self.eigenvectors, dtype=np.float64)
        if lam.ndim != 1 or v.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues must be 1-d and eigenvectors square")
        lam.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    # LAPACK reads only the lower triangle.
    a = np.diag(d)
    i = np.arange(e.size)
    a[i + 1, i] = e
    try:
        return eigh(a, UPLO="L")
    except LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK eigh failed on a {d.size}x{d.size} tridiagonal block: {exc}"
        ) from exc


def _parity_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    """Eigenpairs of a mirror-symmetric tridiagonal matrix, ascending.

    In the basis (e_i +- e_{n-1-i})/sqrt2 the matrix splits into an even and
    an odd tridiagonal block of half size; only the entries at the centre
    differ from the top-left corner of the matrix. For even n the centre pair
    is coupled by e_{m-1}, which lands on the last diagonal entry as +-e_{m-1}.
    For odd n the centre basis vector is even, and its coupling to the even
    combination next to it is sqrt2 e_{m-1}. Each block eigenvector maps back
    by copying (or negating) its entries into the mirrored half, so every
    column is exactly palindromic or antipalindromic.
    """
    n = d.size
    m = n // 2
    n_even = n - m
    d_even = d[:n_even].copy()
    e_even = e[: n_even - 1].copy()
    d_odd = d[:m].copy()
    if n % 2:
        e_even[m - 1] *= math.sqrt(2.0)
    else:
        d_even[m - 1] += e[m - 1]
        d_odd[m - 1] -= e[m - 1]
    lam_even, y = _tridiagonal_eigh(d_even, e_even)
    lam_odd, z = _tridiagonal_eigh(d_odd, e[: m - 1])

    lam = np.concatenate((lam_even, lam_odd))
    order = np.argsort(lam, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    even, odd = column[:n_even], column[n_even:]

    # Scatter straight into the merged column order: no n x n temporaries.
    v = np.empty((n, n), order="F")
    v[:m, even] = y[:m] * _SQRT_HALF
    v[:m, odd] = z * _SQRT_HALF
    v[n - m :, even] = v[m - 1 :: -1, even]
    v[n - m :, odd] = -v[m - 1 :: -1, odd]
    if n % 2:
        v[m, even] = y[m]
        v[m, odd] = 0.0
    return lam[order], v


def eigendecompose(h) -> SpectralDecomposition:
    """Full eigendecomposition of a TridiagonalHamiltonian.

    Eigenvalues come back ascending (ties in the order even block, odd
    block). The sign of each eigenvector is fixed by making its entry of
    largest magnitude (lowest index on ties) positive, so repeated runs are
    reproducible bit for bit.

    Raises ConvergenceError if LAPACK fails to converge (does not happen for
    finite input in practice).
    """
    d = np.asarray(h.diagonal, dtype=np.float64)
    e0 = np.asarray(h.offdiagonal, dtype=np.float64)

    # Diagonal +-1 similarity making every off-diagonal entry -|e|.
    signs = np.cumprod(np.concatenate(([1.0], np.where(e0 > 0.0, -1.0, 1.0))))
    e = -np.abs(e0)

    if e.size and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        lam, v = _parity_eigh(d, e)
    else:
        lam, v = _tridiagonal_eigh(d, e)
        v = np.asfortranarray(v)  # column-major, as the parity path builds it
    v *= signs[:, None]

    n = lam.size
    dominant = np.argmax(np.abs(v), axis=0)
    flip = v[dominant, np.arange(n)] < 0.0
    v[:, flip] *= -1.0

    lam.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(lam, v)


def evolve(decomp: SpectralDecomposition, initial: StateVector, t: float) -> StateVector:
    """State at time t from a normalized initial state: GridPropagator.at(t).

    Eigencomponents of total weight <= DROPPED_WEIGHT_MAX are dropped, so
    each coefficient is within 1e-14 of the exact sum plus round-off; the
    norm matches the input norm to ~1e-12 for dimensions in the thousands.
    Raises ValueError when max|lambda| * |t| is not finite.
    """
    return GridPropagator(decomp, initial).at(t)


def evolve_series(decomp: SpectralDecomposition, initial: StateVector, t_grid) -> list:
    """States at each grid time from one GridPropagator: [p.at(tj) for tj].

    Element j equals evolve(decomp, initial, t_grid[j]) bit for bit, with the
    same dropped weight. An empty grid yields an empty list.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must contain only finite values")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("t_grid must be nondecreasing")
    propagator = GridPropagator(decomp, initial)
    return [propagator.at(tj) for tj in t]


def block_rows(dim: int, steps: int) -> int:
    """Grid times per block of GridPropagator.blocks for a dim-sized state.

    BLOCK_ELEMENTS // dim, but at least 64, so that the stacked real and
    imaginary phases give BLAS 128 rows at large dim; never more than steps
    (one block for a short grid) and never less than 1.
    """
    return max(1, min(steps, max(64, BLOCK_ELEMENTS // dim)))


class GridPropagator:
    """One initial state propagated to single times (at) or over a uniform
    grid (blocks).

    kept_components  eigencomponents the propagation keeps
    dropped_weight   sum of |a_n|^2 over the dropped ones, <= DROPPED_WEIGHT_MAX

    Both depend only on the decomposition and the initial state, so they are
    deterministic. The coefficients differ from the exact sum over all
    eigencomponents by at most sqrt(dropped_weight) plus round-off.
    """

    def __init__(self, decomp: SpectralDecomposition, initial: StateVector):
        if initial.dim != decomp.dim:
            raise ValueError(
                f"state dimension {initial.dim} does not match decomposition "
                f"dimension {decomp.dim}"
            )
        v, c = decomp.eigenvectors, initial.coefficients
        # Two real products: numpy would otherwise copy v to complex.
        a = v.T @ c.real + 1j * (v.T @ c.imag)
        weight = a.real**2 + a.imag**2
        order = np.argsort(weight, kind="stable")
        dropped = np.cumsum(weight[order])
        n_drop = int(np.searchsorted(dropped, DROPPED_WEIGHT_MAX, side="right"))
        # Keep at least one component; a zero state fails in the observables.
        n_drop = min(n_drop, a.size - 1)
        keep = np.sort(order[n_drop:])
        self.kept_components = int(keep.size)
        self.dropped_weight = float(dropped[n_drop - 1]) if n_drop else 0.0
        self._lam = decomp.eigenvalues[keep]
        self._lam_max = float(np.abs(self._lam).max())
        self._a = a[keep]
        self._vt = np.ascontiguousarray(v[:, keep].T)

    def _check_phases(self, t_max: float) -> None:
        # exp(-i lam t) is NaN once lam * t overflows (or t is not finite).
        if not math.isfinite(self._lam_max * t_max):
            raise ValueError(
                "phases overflow: max|lambda| * t_max is not finite "
                f"(max|lambda| = {self._lam_max:.3g}, t_max = {t_max:.3g})"
            )

    def at(self, t: float) -> StateVector:
        """State at time t, from one vector-matrix product per real and
        imaginary part. Raises ValueError when max|lambda| * |t| is not finite.

        Not a one-row block: BLAS may round a gemm row differently for
        different block heights, and evolve_series must give evolve's states.
        """
        t = float(t)
        self._check_phases(abs(t))
        z = self._a * np.exp(self._lam * (-1j * t))
        return StateVector(z.real @ self._vt + 1j * (z.imag @ self._vt))

    def blocks(self, dt: float, steps: int):
        """Yield (cr, ci) for successive blocks of the grid t_j = j*dt, j < steps.

        cr and ci are the real and imaginary parts of the coefficients, one
        row per grid time, steps rows over all blocks. They are views of
        buffers the next block overwrites, so consume each block first.

        Raises ValueError when max|lam| * t_max is not finite: the phases
        would be NaN.
        """
        lam, vt = self._lam, self._vt
        dim = vt.shape[1]
        self._check_phases(dt * max(steps - 1, 0))
        rows = block_rows(dim, steps)
        table = np.exp(np.multiply.outer(np.arange(rows) * dt, lam) * -1j)
        z = np.empty_like(table)
        x = np.empty((2 * rows, lam.size))
        out = np.empty((2 * rows, dim))
        for start in range(0, steps, rows):
            n = min(rows, steps - start)
            phase = self._a * np.exp(lam * (-1j * (start * dt)))
            np.multiply(table[:n], phase, out=z[:n])
            x[:n] = z[:n].real
            x[n : 2 * n] = z[:n].imag
            np.matmul(x[: 2 * n], vt, out=out[: 2 * n])
            yield out[:n], out[n : 2 * n]
