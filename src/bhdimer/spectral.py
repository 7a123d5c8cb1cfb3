"""Eigendecomposition and spectral time evolution for tridiagonal Hamiltonians.

Propagation works in the energy eigenbasis: diagonalize once, then

    |psi(t)> = sum_n a_n exp(-i lam_n t) |psi_n>,    a_n = <psi_n|psi(0)>.

`GridPropagator` is the one implementation. It computes the overlaps once and
drops the eigencomponents of smallest weight |a_n|^2 while their total stays
within DROPPED_WEIGHT_MAX, which bounds the error of every coefficient by
sqrt(DROPPED_WEIGHT_MAX) = 1e-14 (each row of V has unit norm). The dropped
set includes the exact zeros of a parity sector the initial state does not
touch. Grids whose phases max|lam| * t_max overflow are refused.

`evolve_series` binds it to the uniform grid t_j = j*dt of
np.linspace(0, t_max, steps), which every scenario runs on, and `evolve` is
column 1 of the grid [0, t]. Iterating it yields blocks of
block_rows(dim, steps) times: the phases of a block are one table
exp(-i lam k dt), k < rows, built once and multiplied by
a_n exp(-i lam_n t_s) at the block start t_s. A block is basis-major, one
column per time: one matmul of the kept eigenvectors V (dim, kept) with the
stacked real and imaginary phases (2, kept, n). At zero bias the kept
components come even sector first and, with m = dim // 2, the product
halves: E = V_even[:dim-m] x_even fills the top dim - m rows, O =
V_odd[:m] x_odd goes to a buffer, and the mirrored bottom m rows become
E[:m] - O, the top ones E[:m] + O (odd vectors vanish on the centre row of
odd dim). A state that keeps one sector only (cat, me and other mirror
images of themselves) skips the mirror: its blocks stay in that sector's
orthonormal basis (e_i +- e_{dim-1-i})/sqrt2, i < m, plus e_m in the even
sector of odd dim, whose rows are sqrt2 V[:m] and V[m]. They have dim - m
(even) or m (odd) rows, GridPropagator.sector names the sector, and
observables.compute_series reduces them there. A block holds about
BLOCK_ELEMENTS values per float array (half that in a sector), so the
elementwise passes stay in cache, and at least 64 times, so the product
keeps a wide matrix at large dim. Its width depends on dim alone, so both
bases get the same phases. Memory stays at a few blocks for any grid
length; the time goes to BLAS and numpy ufuncs, which release the GIL.

The eigenpairs come from LAPACK's tridiagonal driver dstevd in numpy's
OpenBLAS (bhdimer.lapack), or from numpy.linalg.eigh on the densified
matrix where that library lacks it; both give the same bits. Before that, the
off-diagonal is mapped to -|e| by a diagonal +-1 similarity. The solver then
sees bit-identical input for either sign of the tunneling coupling, so the
equivalence "flip e_j and c_n -> (-1)^n c_n" holds exactly in floating
point, not merely to round-off.

A mirror-symmetric matrix (palindromic diagonal and off-diagonal, as the
dimer produces at zero bias) commutes with index reversal. It is
diagonalized as two half-size tridiagonal blocks, one per parity sector, so
every eigenvector is exactly even or odd under index reversal and
trajectories from interchanged modes mirror each other down to summation
round-off rather than eigenvector accuracy. SpectralDecomposition.even
labels those columns, so GridPropagator can split its product by sector.
Any other matrix is diagonalized whole, with no labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh

from . import lapack

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
        if solved is None:  # no dstevd in numpy's OpenBLAS: eigh reads the lower triangle
            a = np.diag(d)
            a[np.arange(1, d.size), np.arange(e.size)] = e
            solved = eigh(a, UPLO="L")
        return solved
    except LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK failed on a {d.size}x{d.size} tridiagonal block: {exc}"
        ) from exc


def _sector_block(d: np.ndarray, e: np.ndarray, even: bool) -> tuple:
    """Diagonal and off-diagonal of a mirror-symmetric tridiagonal matrix in
    the basis of one parity sector.

    With m = n // 2, that basis is (e_i +- e_{n-1-i})/sqrt2 for i < m, plus
    the centre vector e_m in the even sector of odd n: n - m rows (even) or
    m rows (odd). Only the entries at the centre differ from the top-left
    corner of the matrix. For even n the centre pair is coupled by e_{m-1},
    which lands on the last diagonal entry as +-e_{m-1}. For odd n the
    coupling of e_m to the even combination next to it is sqrt2 e_{m-1}.
    """
    n = d.size
    m = n // 2
    rows = n - m if even else m
    d_s = d[:rows].copy()
    e_s = e[: rows - 1].copy()
    if n % 2:
        if even:
            e_s[m - 1] *= math.sqrt(2.0)
    elif even:
        d_s[m - 1] += e[m - 1]
    else:
        d_s[m - 1] -= e[m - 1]
    return d_s, e_s


def _parity_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    """Eigenpairs of a mirror-symmetric tridiagonal matrix, ascending, and a
    mask of the even columns.

    The two _sector_block blocks are solved on their own. Each block
    eigenvector maps back by copying (or negating) its entries into the
    mirrored half, so every column is exactly palindromic or antipalindromic.
    """
    n = d.size
    m = n // 2
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

    Column 1 of evolve_series over the grid [0, t], whose phases are the
    direct exp(-i lam t). Eigencomponents of total weight <=
    DROPPED_WEIGHT_MAX are dropped, so each coefficient is within 1e-14 of
    the exact sum plus round-off; the norm matches the input norm to ~1e-12
    for dimensions in the thousands. Raises ValueError when t or
    max|lambda| * |t| is not finite.
    """
    propagator = evolve_series(decomp, initial, [0.0, t])
    ((cr, ci),) = propagator
    c = np.zeros(decomp.dim, dtype=complex)
    c[: cr.shape[0]] = cr[:, 1] + 1j * ci[:, 1]
    if propagator.sector is not None:
        # From the sector basis: c_i = +-c_{dim-1-i} = y_i / sqrt2 for i < m.
        m = decomp.dim // 2
        c[:m] *= _SQRT_HALF
        c[decomp.dim - m :] = c[m - 1 :: -1] * (1.0 if propagator.sector == "even" else -1.0)
    return StateVector(c)


def evolve_series(decomp: SpectralDecomposition, initial: StateVector, t_grid) -> GridPropagator:
    """The trajectory of a normalized initial state over a uniform grid.

    t_grid must be np.linspace(0.0, t_max, steps) for a finite t_max (any
    other grid is a ValueError); an empty grid yields no block. The result
    is a GridPropagator: iterate it for (cr, ci) blocks, or pass it to
    observables.compute_series.
    """
    return GridPropagator(decomp, initial, t_grid)


def block_rows(dim: int, steps: int) -> int:
    """Grid times per block of a GridPropagator for a dim-sized state.

    BLOCK_ELEMENTS // dim, but at least 64, so that each gemm keeps 64
    columns at large dim; never more than steps (one block for a short grid)
    and never less than 1.
    """
    return max(1, min(steps, max(64, BLOCK_ELEMENTS // dim)))


class GridPropagator:
    """One initial state propagated over the uniform grid t_j = j*dt.

    Iterating yields (cr, ci) for successive blocks of the grid: the real
    and imaginary coefficients, (rows, n) with one column per grid time. The
    rows are the Fock basis, dim of them, unless sector is set. They are
    views of buffers the next block overwrites, so consume each block first.
    Every iteration starts again at t = 0.

    kept_components  eigencomponents the propagation keeps
    kept_per_parity  [even, odd] counts of them; None without parity labels
    sector           "even" or "odd" when every kept component lies in that
                     parity sector, whose basis (see the module docstring)
                     the rows are then in; None for the Fock basis
    dropped_weight   sum of |a_n|^2 over the dropped ones, <= DROPPED_WEIGHT_MAX

    They depend only on the decomposition and the initial state, so they are
    deterministic. The coefficients differ from the exact sum over all
    eigencomponents by at most sqrt(dropped_weight) plus round-off.

    Raises ValueError unless t_grid is np.linspace(0.0, t_max, steps) for a
    finite t_max, and when max|lambda| * t_max is not finite: the phases
    would be NaN.
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
        # _height: rows of a block, dim or the size of the sector.
        self._dim = self._height = rows = decomp.dim
        columns, paired = keep, 0
        self.kept_per_parity = self.sector = self._v_odd = None
        if decomp.even is not None:
            even = decomp.even[keep]
            keep = np.concatenate((keep[even], keep[~even]))
            n_even, m = int(even.sum()), decomp.dim // 2
            self.kept_per_parity = [n_even, keep.size - n_even]
            if n_even in (0, keep.size):
                # One sector, in its own basis: _v holds sqrt2 V[:m] plus the
                # centre row V[m] of the even sector at odd dim.
                self.sector = "even" if n_even else "odd"
                self._height = rows = decomp.dim - m if n_even else m
                columns, paired = keep, m
            else:
                # Even components first: _v holds their top dim - m rows, _v_odd
                # the odd ones' top m rows.
                self._v_odd = np.ascontiguousarray(v[:m, keep[n_even:]])
                rows, columns = decomp.dim - m, keep[:n_even]
        self._v = np.ascontiguousarray(v[:rows, columns])
        self._v[:paired] *= math.sqrt(2.0)
        self._lam = decomp.eigenvalues[keep]
        self._a = a[keep]

        self._steps = t.size
        t_max = float(t[-1]) if t.size else 0.0
        # np.linspace's own step: its t_j is j * dt except the last, which is t_max.
        self._dt = t_max / (t.size - 1) if t.size > 1 else 0.0
        lam_max = float(np.abs(self._lam).max())
        if not math.isfinite(lam_max * t_max):
            raise ValueError(
                "phases overflow: max|lambda| * t_max is not finite "
                f"(max|lambda| = {lam_max:.3g}, t_max = {t_max:.3g})"
            )

    def _product(self, x: np.ndarray, out: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """out (2, dim, n) = V x (2, kept, n); odd is (2, dim // 2, n) scratch."""
        if self._v_odd is None:
            return np.matmul(self._v, x, out=out)
        m, n_even, dim = self._v_odd.shape[0], self._v.shape[1], self._dim
        np.matmul(self._v, x[:, :n_even], out=out[:, : dim - m])
        np.matmul(self._v_odd, x[:, n_even:], out=odd)
        np.subtract(out[:, :m], odd, out=out[:, : dim - m - 1 : -1])
        out[:, :m] += odd
        return out

    def __iter__(self):
        lam, dim, height, kept = self._lam, self._dim, self._height, self._lam.size
        dt, steps = self._dt, self._steps
        # Block widths of dim whatever the basis: the same phases in each.
        rows = block_rows(dim, steps)
        table = np.exp(np.multiply.outer(lam, np.arange(rows) * dt) * -1j)
        # Flat workspaces: a partial last block takes contiguous leading views.
        z = np.empty(kept * rows, dtype=complex)
        x, out, odd = (np.empty(size * rows) for size in (2 * kept, 2 * height, 2 * (dim // 2)))

        def lead(buf, *shape):
            return buf[: math.prod(shape)].reshape(shape)

        for start in range(0, steps, rows):
            n = min(rows, steps - start)
            phase = self._a * np.exp(lam * (-1j * (start * dt)))
            zn = np.multiply(table[:, :n], phase[:, None], out=lead(z, kept, n))
            xn = lead(x, 2, kept, n)
            xn[0], xn[1] = zn.real, zn.imag
            c = self._product(xn, lead(out, 2, height, n), lead(odd, 2, dim // 2, n))
            yield c[0], c[1]
