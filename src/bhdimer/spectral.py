"""Eigendecomposition and spectral time evolution for tridiagonal Hamiltonians.

Propagation works in the energy eigenbasis: diagonalize once, then

    |psi(t)> = sum_n a_n exp(-i lam_n t) |psi_n>,    a_n = <psi_n|psi(0)>.

`GridPropagator` is the one implementation, which `evolve_series` and
`evolve` bind to a grid. Its blocks of block_rows(dim, steps) grid times are
each one matmul of the kept eigenvector rows with the real and imaginary
phases (2, kept, n): a table exp(-i lam k dt), k < rows, times
a_n exp(-i lam_n t_s) at the block start t_s. The width depends on dim and
steps alone, so every basis gets the same phases. The work runs in BLAS and
numpy ufuncs, which release the GIL.

The eigenpairs come from LAPACK's dstevd in numpy's OpenBLAS
(bhdimer.lapack), or from numpy.linalg.eigh on the densified matrix where
that library lacks it; both give the same bits. A diagonal +-1 similarity
first maps the off-diagonal to -|e|, so "flip e_j and c_n -> (-1)^n c_n"
holds exactly. A mirror-symmetric matrix (the dimer at zero bias) is
diagonalized as two half-size blocks, one per parity sector, so every
eigenvector is exactly even or odd (SpectralDecomposition.even) and
interchanged modes mirror each other down to summation round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh

from . import lapack
from .model import TridiagonalHamiltonian, imbalance_diagonal

__all__ = [
    "BLOCK_ELEMENTS", "Basis", "ConvergenceError", "DROPPED_WEIGHT_MAX", "GridPropagator",
    "SpectralDecomposition", "StateVector", "block_rows", "eigendecompose", "evolve",
    "evolve_series",
]

_SQRT_HALF = math.sqrt(0.5)

# Largest total weight sum |a_n|^2 that GridPropagator may drop.
DROPPED_WEIGHT_MAX = 1e-28
# Grid times per block: rows * dim stays near 2^16 doubles (512 KiB) per
# array, in cache, unless block_rows' floor of 64 rows (a wide gemm) applies.
BLOCK_ELEMENTS = 2**16


class ConvergenceError(RuntimeError):
    """LAPACK's tridiagonal eigensolver did not converge on a Hamiltonian block."""


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
    even          bool per column, True if v[::-1, n] == v[:, n] and False if
                  v[::-1, n] == -v[:, n]; None when parity is not known
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    even: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        v = np.asarray(self.eigenvectors, dtype=np.float64)
        even = None if self.even is None else np.array(self.even, dtype=bool)
        if lam.ndim != 1 or v.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues must be 1-d and eigenvectors square")
        if even is not None and even.shape != lam.shape:
            raise ValueError("even must hold one label per eigenvector")
        for name, a in (("eigenvalues", lam), ("eigenvectors", v), ("even", even)):
            if a is not None:
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    try:
        solved = lapack.dstevd(d, e)
        if solved is None:  # no dstevd in numpy's OpenBLAS
            solved = eigh(TridiagonalHamiltonian(d, e).to_dense(), UPLO="L")
        return solved
    except LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK failed on a {d.size}x{d.size} tridiagonal block: {exc}"
        ) from exc


def _sector_block(d: np.ndarray, e: np.ndarray, even: bool) -> tuple:
    """Diagonal and off-diagonal of a mirror-symmetric tridiagonal matrix in
    the basis of one parity sector: n - m rows (even) or m rows (odd).

    Only the centre differs from the matrix's top-left corner: at even n the
    centre pair's coupling e_{m-1} lands on the last diagonal entry as
    +-e_{m-1}; at odd n e_m couples to its even neighbour by sqrt2 e_{m-1}.
    """
    n, m = d.size, d.size // 2
    rows = n - m if even else m
    d_s, e_s = d[:rows].copy(), e[: rows - 1].copy()
    if n % 2 and even:
        e_s[m - 1] *= math.sqrt(2.0)
    elif not n % 2:
        d_s[m - 1] += e[m - 1] if even else -e[m - 1]
    return d_s, e_s


def _parity_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    """Eigenpairs of a mirror-symmetric tridiagonal matrix, ascending, and a
    mask of the even columns. Each _sector_block eigenvector maps back by
    copying (or negating) its entries into the mirrored half."""
    n, m = d.size, d.size // 2
    n_even = n - m
    lam_even, y = _tridiagonal_eigh(*_sector_block(d, e, True))
    lam_odd, z = _tridiagonal_eigh(*_sector_block(d, e, False))

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
    return lam[order], v, order < n_even


def eigendecompose(h) -> SpectralDecomposition:
    """Full eigendecomposition of a TridiagonalHamiltonian.

    Eigenvalues come back ascending (ties: even block first). Each
    eigenvector's entry of largest magnitude (lowest index on ties) is
    positive, so reruns give the same bits. Raises ConvergenceError if LAPACK
    fails to converge (not seen for finite input).
    """
    d = np.asarray(h.diagonal, dtype=np.float64)
    e0 = np.asarray(h.offdiagonal, dtype=np.float64)

    # Diagonal +-1 similarity making every off-diagonal entry -|e|.
    signs = np.cumprod(np.concatenate(([1.0], np.where(e0 > 0.0, -1.0, 1.0))))
    e = -np.abs(e0)

    even = None
    if e.size and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        lam, v, even = _parity_eigh(d, e)
        # signs[i] * signs[-1-i] scales every column's parity: -1 swaps, a mix voids.
        mirror = signs * signs[::-1]
        even = even ^ (mirror[0] < 0.0) if np.all(mirror == mirror[0]) else None
    else:
        lam, v = _tridiagonal_eigh(d, e)
        v = np.asfortranarray(v)  # column-major, as the parity path builds it
    v *= signs[:, None]

    n = lam.size
    dominant = np.argmax(np.abs(v), axis=0)
    flip = v[dominant, np.arange(n)] < 0.0
    v[:, flip] *= -1.0

    return SpectralDecomposition(lam, v, even)


def evolve(decomp: SpectralDecomposition, initial: StateVector, t: float) -> StateVector:
    """State at time t from a normalized initial state.

    Column 1 of evolve_series over the grid [0, t], unfolded to the Fock
    basis: each coefficient is within 2e-14 of the exact sum plus round-off.
    Raises ValueError when t or max|lambda| * |t| is not finite.
    """
    propagator = evolve_series(decomp, initial, [0.0, t])
    ((cr, ci),) = propagator
    return propagator.basis.unfold(cr[:, 1] + 1j * ci[:, 1])


def evolve_series(decomp: SpectralDecomposition, initial: StateVector, t_grid) -> GridPropagator:
    """The GridPropagator of a normalized initial state over t_grid, which
    must be np.linspace(0.0, t_max, steps); an empty grid yields no block."""
    return GridPropagator(decomp, initial, t_grid)


def block_rows(dim: int, steps: int) -> int:
    """Grid times per block of a GridPropagator for a dim-sized state:
    BLOCK_ELEMENTS // dim, but at least 64 and at most steps (and >= 1)."""
    return max(1, min(steps, max(64, BLOCK_ELEMENTS // dim)))


@dataclass(frozen=True, eq=False)
class Basis:
    """The rows of a GridPropagator's blocks: dim = N + 1, and the ascending
    index of each row in the Fock basis (sector None) or in the basis of the
    parity sector "even" or "odd" at zero bias: (e_i +- e_{dim-1-i})/sqrt2
    for i < dim // 2, plus e_{dim // 2} in the even sector of odd dim."""

    dim: int
    rows: np.ndarray
    sector: str | None = None

    @property
    def paired(self) -> np.ndarray:
        """True for the sector rows (e_i +- e_{dim-1-i})/sqrt2."""
        return self.rows < (self.dim // 2 if self.sector else 0)

    @property
    def kept_rows(self) -> int:
        """Fock rows the blocks stand for; dim when no row was dropped."""
        return int(self.rows.size + self.paired.sum())

    def reduction(self, h) -> tuple:
        """(offdiagonal, weights) of observables._block_columns in this basis.

        offdiagonal couples consecutive rows: h's coupling where they are
        neighbours in h (or its sector block), 0 where a split window's
        halves meet. weights are the rows (d, d^2, diagonal) of the moments,
        d = N - 2n. In a sector d is odd, so its row is 0, and a paired row
        splits its weight q over two Fock states, -2 (q/2) log2(q/2) =
        -q log2 q + q: a last row adds those q to the entropy.
        """
        r, d = self.rows, imbalance_diagonal(h.n_total)
        diagonal, offdiagonal = h.diagonal, h.offdiagonal
        if self.sector:
            diagonal, offdiagonal = _sector_block(diagonal, offdiagonal, self.sector == "even")
        coupling = np.where(r[1:] == r[:-1] + 1, offdiagonal[r[:-1]], 0.0)
        if self.sector is None:
            return coupling, np.stack((d[r], d[r] ** 2, diagonal[r]))
        return coupling, np.stack((np.zeros(r.size), d[r] ** 2, diagonal[r], self.paired))

    def unfold(self, column: np.ndarray) -> StateVector:
        """The Fock-basis state of one block column; dropped rows are 0."""
        c, top = np.zeros(self.dim, dtype=complex), self.rows[self.paired]
        c[self.rows] = column * np.where(self.paired, _SQRT_HALF, 1.0)
        c[self.dim - 1 - top] = c[top] * (-1.0 if self.sector == "odd" else 1.0)
        return StateVector(c)


def _window(weight: np.ndarray) -> tuple:
    """(lo, hi, dropped): the fewest rows [lo, hi) whose dropped edge rows
    weigh dropped <= DROPPED_WEIGHT_MAX in total; at least one row stays."""
    size = weight.size
    head = np.concatenate(([0.0], np.cumsum(weight)))  # weight of the rows < i
    tail = np.concatenate((np.cumsum(weight[::-1])[::-1], [0.0]))  # rows >= i
    lo = np.arange(min(size, int(np.searchsorted(head, DROPPED_WEIGHT_MAX, side="right"))))
    # The first hi whose tail fits next to head[lo]: -tail ascends.
    hi = np.maximum(np.searchsorted(-tail, head[lo] - DROPPED_WEIGHT_MAX), lo + 1)
    dropped = head[lo] + tail[hi]
    best = int(np.argmax(np.where(dropped <= DROPPED_WEIGHT_MAX, lo - hi, -size - 1)))
    return int(lo[best]), int(hi[best]), float(dropped[best])


class GridPropagator:
    """One initial state propagated over the uniform grid t_j = j*dt.

    Iterating yields (cr, ci) blocks from t = 0: the real and imaginary
    coefficients in basis, (rows, n) with one column per grid time, as views
    of buffers the next block overwrites.

    basis               the Basis of the block rows: a parity sector's if the
                        state keeps only that one, else Fock; cut by _window
    kept_components     eigencomponents the propagation keeps
    kept_per_parity     [even, odd] counts of them; None without parity labels
    dropped_weight      sum of |a_n|^2 over the dropped ones, the lightest
    dropped_row_weight  sum of b_i^2 over the Fock rows outside the window,
                        b_i = sum_kept |a_n| |V_in| >= |c_i(t)| at every t
    phase_error_bound   eps * max|lambda_kept| * t_max, the round-off of the
                        largest phase, which sets the error at large couplings

    All are deterministic. Both dropped weights are <= DROPPED_WEIGHT_MAX, so
    each coefficient is within 2e-14 of the exact sum plus round-off. Raises
    ValueError for another grid or when max|lambda| * t_max is not finite.
    """

    def __init__(self, decomp: SpectralDecomposition, initial: StateVector, t_grid):
        t = np.asarray(t_grid, dtype=np.float64)
        if t.ndim != 1 or t.size and not (
            math.isfinite(t[-1]) and np.array_equal(t, np.linspace(0.0, t[-1], t.size))
        ):
            raise ValueError("t_grid must be np.linspace(0.0, t_max, steps) for a finite t_max")
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

        # The product multiplies the top `top` rows of v[:, columns]; a split
        # one adds v_odd, the odd components' top m (= pairs) rows.
        dim = decomp.dim
        m, top, columns, sector, v_odd, pairs = dim // 2, dim, keep, None, None, 0
        self.kept_per_parity = None
        if decomp.even is not None:
            even = decomp.even[keep]
            keep = np.concatenate((keep[even], keep[~even]))
            n_even = int(even.sum())
            self.kept_per_parity = [n_even, keep.size - n_even]
            top = dim - m if n_even else m
            if n_even in (0, keep.size):
                sector = "even" if n_even else "odd"
            else:
                columns, pairs = keep[:n_even], m
                v_odd = np.ascontiguousarray(v[:m, keep[n_even:]])
        v_top = np.ascontiguousarray(v[:top, columns])
        if sector:
            v_top[:m] *= math.sqrt(2.0)
        bound = np.abs(v_top) @ np.abs(a[columns])
        if pairs:
            bound[:m] += np.abs(v_odd) @ np.abs(a[keep[columns.size :]])
        weight = bound**2
        weight[:pairs] *= 2.0  # a split pair is two Fock rows
        lo, hi, self.dropped_row_weight = _window(weight)
        self._v, self._v_odd = v_top[lo:hi], v_odd if v_odd is None else v_odd[lo : min(hi, m)]
        mirror = np.arange(dim - min(hi, m), dim - lo) if pairs else np.arange(0)
        self.basis = Basis(dim, np.concatenate((np.arange(lo, hi), mirror)), sector)
        self._lam = decomp.eigenvalues[keep]
        self._a = a[keep]

        self._dim, self._steps = dim, t.size
        t_max = float(t[-1]) if t.size else 0.0
        # np.linspace's own step: its t_j is j * dt except the last, which is t_max.
        self._dt = t_max / (t.size - 1) if t.size > 1 else 0.0
        lam_max = float(np.abs(self._lam).max())
        if not math.isfinite(lam_max * t_max):
            raise ValueError(
                "phases overflow: max|lambda| * t_max is not finite "
                f"(max|lambda| = {lam_max:.3g}, t_max = {t_max:.3g})"
            )
        self.phase_error_bound = float(np.finfo(float).eps * lam_max * t_max)

    def _product(self, x: np.ndarray, out: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """out (2, rows, n) = V x (2, kept, n); odd is (2, pairs, n) scratch.
        Split, x holds the even components first: E = V_even x_even fills the
        top rows, O = V_odd x_odd goes to odd, then the first pairs rows take
        E + O and their mirror rows, after the top ones, E - O."""
        if self._v_odd is None:
            return np.matmul(self._v, x, out=out)
        (top, n_even), pairs = self._v.shape, self._v_odd.shape[0]
        np.matmul(self._v, x[:, :n_even], out=out[:, :top])
        np.matmul(self._v_odd, x[:, n_even:], out=odd)
        # The mirror rows follow the top ones in ascending Fock order.
        np.subtract(out[:, :pairs], odd, out=out[:, top + pairs - 1 : top - 1 : -1])
        out[:, :pairs] += odd
        return out

    def __iter__(self):
        lam, dim, kept = self._lam, self._dim, self._lam.size
        dt, steps, height = self._dt, self._steps, self.basis.rows.size
        pairs = 0 if self._v_odd is None else self._v_odd.shape[0]
        # Block widths of dim whatever the basis: the same phases in each.
        rows = block_rows(dim, steps)
        table = np.exp(np.multiply.outer(lam, np.arange(rows) * dt) * -1j)
        # Flat workspaces: a partial last block takes contiguous leading views.
        z = np.empty(kept * rows, dtype=complex)
        x, out, odd = (np.empty(size * rows) for size in (2 * kept, 2 * height, 2 * pairs))

        def lead(buf, *shape):
            return buf[: math.prod(shape)].reshape(shape)

        for start in range(0, steps, rows):
            n = min(rows, steps - start)
            phase = self._a * np.exp(lam * (-1j * (start * dt)))
            zn = np.multiply(table[:, :n], phase[:, None], out=lead(z, kept, n))
            xn = lead(x, 2, kept, n)
            xn[0], xn[1] = zn.real, zn.imag
            c = self._product(xn, lead(out, 2, height, n), lead(odd, 2, pairs, n))
            yield c[0], c[1]
