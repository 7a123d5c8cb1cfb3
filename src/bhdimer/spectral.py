"""Eigendecomposition and spectral time evolution for tridiagonal Hamiltonians.

Propagation works in the energy eigenbasis: diagonalize once, then

    |psi(t)> = sum_n a_n exp(-i lam_n t) |psi_n>,    a_n = <psi_n|psi(0)>.

`GridPropagator` is the one implementation, which `evolve_series` and
`evolve` bind to a grid. Its blocks of block_rows(dim, steps) grid times are
each one real matmul of the kept eigenvector rows with the complex phases
(kept, n) viewed as floats (kept, 2n): a table exp(-i lam k dt), k < rows,
times a_n exp(-i lam_n t_s) at the block start t_s. The float product
(rows, 2n) is the complex block (rows, n). The width depends on dim and
steps alone, so every basis gets the same phases. The work runs in BLAS and
numpy ufuncs, which release the GIL.

The eigenpairs come from LAPACK's dstevd in numpy's OpenBLAS
(bhdimer.lapack), or from numpy.linalg.eigh on the densified matrix where
that library lacks it; both give the same bits. A diagonal +-1 similarity
first maps the off-diagonal to -|e|, so "flip e_j and c_n -> (-1)^n c_n"
holds exactly. A mirror-symmetric matrix (the dimer at zero bias) is
diagonalized as two half-size blocks, one per parity sector, whose
eigenvectors stay in that sector's rows: each is exactly even or odd, and
interchanged modes mirror each other down to summation round-off. Each
block keeps its eigenpairs as LAPACK returns them, ascending and with
LAPACK's signs (a run uses V_n only in a_n V_n, which a sign flip leaves
alone), and only Basis maps block rows to Fock rows (unfold) and back (fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh

from . import lapack
from .model import TridiagonalHamiltonian, read_only_array

__all__ = [
    "BLOCK_ELEMENTS", "Basis", "ConvergenceError", "DROPPED_WEIGHT_MAX", "GridPropagator",
    "PhaseOverflowError", "SpectralDecomposition", "StateVector", "block_rows", "eigendecompose",
    "evolve", "evolve_series",
]

_SQRT_HALF = math.sqrt(0.5)

# Largest total weight sum |a_n|^2 that GridPropagator may drop.
DROPPED_WEIGHT_MAX = 1e-28
# Grid times per block: rows * dim stays near 2^16 complex coefficients
# (1 MiB) per block, in cache, unless block_rows' floor of 64 rows (a wide
# gemm) applies.
BLOCK_ELEMENTS = 2**16


class ConvergenceError(RuntimeError):
    """LAPACK's tridiagonal eigensolver did not converge on a Hamiltonian block."""


class PhaseOverflowError(ValueError):
    """The largest phase max|lambda| * t_max of a run is not finite."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex coefficients c_n over the fixed-N basis |N-n, n>."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
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
    """Eigenpairs of a real symmetric tridiagonal matrix, held as blocks.

    blocks  (basis, eigenvalues, vectors) triples: vectors, (basis rows,
            eigenvalues.size), holds one eigenvector per eigenvalue and per
            row of basis, ascending. One Fock block over all dim rows, or
            an even and then an odd block over their sector rows; any other
            layout raises ValueError. Held read-only: writeable arrays are
            copied in their own layout (model.read_only_array), on which
            the overlaps' bits depend. dim and the rest are views.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(
            (basis, read_only_array(lam), read_only_array(vectors))
            for basis, lam, vectors in self.blocks
        )
        if len({basis.dim for basis, _, _ in blocks}) != 1:
            raise ValueError("the blocks must be one or more, all of one basis dim")
        if any(lam.shape != (b.rows.size,) or v.shape != 2 * lam.shape for b, lam, v in blocks):
            raise ValueError("need vectors (basis rows, eigenvalues.size), one per basis row")
        n = blocks[0][0].dim
        if [(b.sector, b.rows.tolist()) for b, _, _ in blocks] not in (
            [(None, [*range(n)])], [("even", [*range(n - n // 2)]), ("odd", [*range(n // 2)])]
        ):
            raise ValueError("need one Fock block over all dim rows, or an even then an odd block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.blocks[0][0].dim

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every block's eigenvalues, ascending, as a new read-only array."""
        return self._merge((lam for _, lam, _ in self.blocks), ())

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal (dim, eigenvalues.size), column n |psi_n> of eigenvalues[n]:
        the blocks unfolded to Fock rows, as a new read-only array."""
        return self._merge((basis.unfold(v) for basis, _, v in self.blocks), (self.dim,))

    def _merge(self, parts, rows: tuple) -> np.ndarray:
        """The blocks' parts (*rows, block eigenvalues) as one read-only array,
        columns in stable ascending eigenvalue order: ties go to the even block."""
        lam = [lam for _, lam, _ in self.blocks]
        place = np.argsort(np.argsort(np.concatenate(lam), kind="stable"))  # inverse permutation
        merged = np.empty(rows + place.shape, order="F")
        for part, columns in zip(parts, np.split(place, np.cumsum([w.size for w in lam])[:-1])):
            merged[..., columns] = part
        merged.setflags(write=False)
        return merged


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray) -> tuple:
    try:
        solved = lapack.dstevd(d, e)
        if solved is None:  # no dstevd in numpy's OpenBLAS
            lam, v = eigh(TridiagonalHamiltonian(d, e).to_dense(), UPLO="L")
            solved = lam, np.asfortranarray(v)  # column-major, as dstevd gives it
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


def eigendecompose(h) -> SpectralDecomposition:
    """Full eigendecomposition of a TridiagonalHamiltonian.

    Blocks even first, each with its eigenpairs as LAPACK returns them:
    eigenvalues ascending, vectors with LAPACK's signs once the +-1
    similarity is undone, marked read-only here so that the decomposition
    copies none of them. Raises ConvergenceError if LAPACK fails to
    converge (not seen for finite input).
    """
    d = np.asarray(h.diagonal, dtype=np.float64)
    e0 = np.asarray(h.offdiagonal, dtype=np.float64)
    n = d.size

    # Diagonal +-1 similarity making every off-diagonal entry -|e|.
    signs = np.cumprod(np.concatenate(([1.0], np.where(e0 > 0.0, -1.0, 1.0))))
    e = -np.abs(e0)

    # signs[i] * signs[-1-i] scales every column's parity: -1 swaps the
    # sectors' labels; a mix leaves no parity, so the matrix is solved whole.
    mirror = signs * signs[::-1]
    palindromic = np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
    if e.size and palindromic and np.all(mirror == mirror[0]):
        # Even first: at mirror -1 the canonical odd block holds the even vectors.
        swap = mirror[0] < 0.0
        solved = [_tridiagonal_eigh(*_sector_block(d, e, even != swap)) for even in (True, False)]
        bases = [Basis(n, np.arange(v.shape[0]), s) for (_, v), s in zip(solved, ("even", "odd"))]
    else:
        solved, bases = [_tridiagonal_eigh(d, e)], [Basis(n, np.arange(n))]
    for basis, (w, v) in zip(bases, solved):
        v *= signs[basis.rows, None]
        w.setflags(write=False)
        v.setflags(write=False)
    return SpectralDecomposition(tuple((basis, w, v) for basis, (w, v) in zip(bases, solved)))


def evolve(decomp: SpectralDecomposition, initial: StateVector, t: float) -> StateVector:
    """State at time t from a normalized initial state.

    Column 1 of evolve_series over the grid [0, t], unfolded to the Fock
    basis: each coefficient is within 2e-14 of the exact sum plus round-off.
    Raises ValueError when t or max|lambda| * |t| is not finite.
    """
    propagator = evolve_series(decomp, initial, [0.0, t])
    (c,) = propagator
    return StateVector(propagator.basis.unfold(c[:, 1]))


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

    def hamiltonian(self, h) -> tuple:
        """(diagonal, coupling) of h in this basis: the diagonal at each row,
        and h's coupling of consecutive rows where they are neighbours in h
        (or in its sector block), 0 across the dropped rows between them."""
        r, diagonal, offdiagonal = self.rows, h.diagonal, h.offdiagonal
        if self.sector:
            diagonal, offdiagonal = _sector_block(diagonal, offdiagonal, self.sector == "even")
        return diagonal[r], np.where(r[1:] == r[:-1] + 1, offdiagonal[r[:-1]], 0.0)

    def fold(self, c: np.ndarray) -> np.ndarray:
        """Fock-basis array c (dim, ...) in this basis's rows (rows, ...):
        unfold's inverse on the states the basis holds."""
        c = np.asarray(c, dtype=np.result_type(c, 1.0))
        x, p, sign = c[self.rows], self.paired, -1.0 if self.sector == "odd" else 1.0
        x[p] = (x[p] + sign * c[self.dim - 1 - self.rows[p]]) * _SQRT_HALF
        return x

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """Fock-basis array (dim, ...) of rows x (rows, ...) in this basis;
        dropped rows are 0."""
        x, top = np.asarray(x), self.rows[self.paired]
        c = np.zeros((self.dim,) + x.shape[1:], dtype=np.result_type(x, 1.0))
        c[self.rows] = (x.T * np.where(self.paired, _SQRT_HALF, 1.0)).T
        c[self.dim - 1 - top] = c[top] * (-1.0 if self.sector == "odd" else 1.0)
        return c


def _lightest(weight: np.ndarray) -> tuple:
    """(keep, dropped): a mask that drops the lightest entries, ties in index
    order, while their total dropped stays <= DROPPED_WEIGHT_MAX; at least
    one entry stays."""
    order = np.argsort(weight, kind="stable")
    total = np.cumsum(weight[order])
    n_drop = min(int(np.searchsorted(total, DROPPED_WEIGHT_MAX, side="right")), weight.size - 1)
    keep = np.ones(weight.size, dtype=bool)
    keep[order[:n_drop]] = False
    return keep, float(total[n_drop - 1]) if n_drop else 0.0


class GridPropagator:
    """One initial state propagated over the uniform grid t_j = j*dt.

    Iterating yields complex blocks from t = 0: the coefficients in basis,
    (rows, n) with one column per grid time, as views of a buffer the next
    block overwrites.

    t                   t_grid as float64, t_grid itself (no copy) if it is
    basis               the Basis of the block rows: a parity sector's if the
                        state keeps only that one, else Fock; only the rows
                        the state reaches, lightest dropped as the components
    kept_components     eigencomponents the propagation keeps
    kept_per_parity     [even, odd] counts of them; None without parity labels
    dropped_weight      sum of |a_n|^2 over the dropped ones, the lightest
    dropped_row_weight  sum of b_i^2 over the dropped Fock rows, the lightest,
                        b_i = sum_kept |a_n| |V_in| >= |c_i(t)| at every t
    phase_error_bound   eps * max|lambda_kept| * |t_max|, the round-off of the
                        largest phase, which sets the error at large couplings

    All are deterministic. Both dropped weights are <= DROPPED_WEIGHT_MAX, so
    each coefficient is within 2e-14 of the exact sum plus round-off. Raises
    ValueError for another grid, PhaseOverflowError when max|lambda| * t_max
    is not finite.
    """

    def __init__(self, decomp: SpectralDecomposition, initial: StateVector, t_grid):
        t = np.asarray(t_grid, dtype=np.float64)
        if t.ndim != 1 or t.size and not (
            math.isfinite(t[-1]) and np.array_equal(t, np.linspace(0.0, t[-1], t.size))
        ):
            raise ValueError("t_grid must be np.linspace(0.0, t_max, steps) for a finite t_max")
        self.t = t
        if initial.dim != decomp.dim:
            raise ValueError(
                f"state dimension {initial.dim} does not match decomposition "
                f"dimension {decomp.dim}"
            )
        c, dim = initial.coefficients, decomp.dim
        a = []
        for basis, _, v in decomp.blocks:
            x = basis.fold(c)
            # Two real products: numpy would otherwise copy v to complex.
            a.append(v.T @ x.real + 1j * (v.T @ x.imag))
        # At least one component stays; a zero state fails in the observables,
        # and so does one whose squared weights overflow.
        with np.errstate(over="ignore"):
            weight = np.concatenate([x.real**2 + x.imag**2 for x in a])
        kept, self.dropped_weight = _lightest(weight)
        self.kept_components = int(kept.sum())

        # Each block's kept eigenpairs, ascending, and their overlaps.
        kept = np.split(kept, np.cumsum([x.size for x in a])[:-1])
        parts = [(b, lam[k], v[:, k], x[k]) for (b, lam, v), x, k in zip(decomp.blocks, a, kept)]
        self.kept_per_parity = [p[1].size for p in parts] if parts[0][0].sector else None
        parts = [p for p in parts if p[1].size]
        self._lam = np.concatenate([p[1] for p in parts])
        self._a = np.concatenate([p[3] for p in parts])
        # The product multiplies v_top and v_odd, (pairs, kept odd). With both
        # sectors kept they are the even and the odd vectors' top Fock rows,
        # pairs = dim // 2; else v_top is the one block's and no row is paired.
        if len(parts) == 1:
            ((basis, _, v_top, _),) = parts
            v_top, v_odd, sector = np.ascontiguousarray(v_top), np.empty((0, 0)), basis.sector
        else:
            (even, _, v_even, _), (odd, _, v_odd, _) = parts
            # C order: the gemm's bits depend on its operands' layout.
            scale = np.where(even.paired, _SQRT_HALF, 1.0)[:, None]
            v_top = np.multiply(v_even, scale, order="C")
            v_odd, sector = np.multiply(v_odd, _SQRT_HALF, order="C"), None
        n_top, pairs = v_top.shape[1], v_odd.shape[0]
        bound = np.abs(v_top) @ np.abs(self._a[:n_top])
        bound[:pairs] += np.abs(v_odd) @ np.abs(self._a[n_top:])
        with np.errstate(over="ignore"):  # as above
            weight = bound**2
        weight[:pairs] *= 2.0  # a split pair is two Fock rows
        keep, self.dropped_row_weight = _lightest(weight)
        top = np.flatnonzero(keep)
        paired = top[top < pairs]
        self.basis = Basis(dim, np.concatenate((top, dim - 1 - paired[::-1])), sector)
        if top[-1] - top[0] + 1 == top.size:  # one run of rows: views, not copies
            top = paired = slice(top[0], top[-1] + 1)
        self._v, self._v_odd = v_top[top], v_odd[paired]

        self._dim, self._steps = dim, t.size
        t_max = float(t[-1]) if t.size else 0.0
        # np.linspace's own step: its t_j is j * dt except the last, which is t_max.
        self._dt = t_max / (t.size - 1) if t.size > 1 else 0.0
        lam_max = float(np.abs(self._lam).max())
        if not math.isfinite(lam_max * t_max):
            raise PhaseOverflowError(
                "phases overflow: max|lambda| * t_max is not finite "
                f"(max|lambda| = {lam_max:.3g}, t_max = {t_max:.3g})"
            )
        self.phase_error_bound = float(np.finfo(float).eps * lam_max * abs(t_max))

    def _product(self, x: np.ndarray, out: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """out (rows, 2n) = V x (kept, 2n), each a complex array viewed as
        floats; odd is (pairs, 2n) scratch. Split, x holds the even
        components first: E = V_even x_even fills the top rows, O = V_odd
        x_odd goes to odd, then the first pairs rows take E + O and their
        mirror rows, after the top ones, E - O. Unsplit, pairs = 0."""
        (top, n_even), pairs = self._v.shape, self._v_odd.shape[0]
        np.matmul(self._v, x[:n_even], out=out[:top])
        np.matmul(self._v_odd, x[n_even:], out=odd)
        # The mirror rows follow the top ones in ascending Fock order.
        np.subtract(out[:pairs], odd, out=out[top + pairs - 1 : top - 1 : -1])
        out[:pairs] += odd
        return out

    def __iter__(self):
        lam, dim, kept = self._lam, self._dim, self._lam.size
        dt, steps, height = self._dt, self._steps, self.basis.rows.size
        pairs = self._v_odd.shape[0]
        # Block widths of dim whatever the basis: the same phases in each.
        rows = block_rows(dim, steps)
        table = np.exp(np.multiply.outer(lam, np.arange(rows) * dt) * -1j)
        # Flat workspaces: a partial last block takes contiguous leading views.
        # The real V times the float view of z: a complex operand would make
        # numpy copy V to complex and do four times the flops.
        z = np.empty(kept * rows, dtype=complex)
        out, odd = (np.empty(2 * size * rows) for size in (height, pairs))

        def lead(buf, *shape):
            return buf[: math.prod(shape)].reshape(shape)

        for start in range(0, steps, rows):
            n = min(rows, steps - start)
            phase = self._a * np.exp(lam * (-1j * (start * dt)))
            zn = np.multiply(table[:, :n], phase[:, None], out=lead(z, kept, n))
            c = self._product(
                zn.view(np.float64), lead(out, height, 2 * n), lead(odd, pairs, 2 * n)
            )
            yield c.view(complex)
