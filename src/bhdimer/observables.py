"""Observables of the dimer state: imbalance moments and mode entanglement.

Everything reported here is a function of the basis weights
P_n = |c_n|^2 plus, for the energy, the nearest-neighbor coherences. Every
observable is that of the normalized weights p_n = P_n / T, T = sum_n P_n,
so a state whose norm has drifted by round-off still yields the observables
of the ray it represents; the drift itself is reported separately as
norm_error.

The entanglement between the two modes of a pure state is the von Neumann
entropy of either reduced density matrix, which for fixed total number
collapses to the Shannon entropy of the basis weights,

    E = -sum_n p_n log2 p_n = log2 T - (sum_n P_n log2 P_n) / T,

bounded by log2(N+1) (uniform weights) and 0 (a single Fock state). The
second form divides only the sums by T, not every weight.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import CouplingConfig, TridiagonalHamiltonian, build_hamiltonian, imbalance_diagonal
from .spectral import Basis, GridPropagator, StateVector

__all__ = [
    "ObservableSeries", "ZeroNormError", "compute_series", "entanglement_entropy",
    "expectation_imbalance", "variance_imbalance",
]

# The entropy takes log2 of max(P, this): a smaller weight, whose log2 is -inf
# or junk, adds P log2(_ENTROPY_FLOOR), -0.0 for an exact zero and far below
# the round-off of the sum otherwise.
_ENTROPY_FLOOR = 1e-300


class ZeroNormError(ValueError):
    """A state to reduce has zero norm at some time: it has no observables."""


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """Per-time observables over a grid, stored column-wise.

    Each column is a read-only view of its argument as a float64 array. A
    float64 array is not copied: the series shares its memory and shows what
    the caller writes to it later, and the caller's array stays writeable.
    """

    t: np.ndarray
    imbalance: np.ndarray
    imbalance_scaled: np.ndarray
    variance: np.ndarray
    entanglement_bits: np.ndarray
    norm_error: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        n = None
        for name in self.COLUMNS:
            a = np.asarray(getattr(self, name), dtype=np.float64).view()
            if a.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("all series columns must have equal length")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.t.size


# The column names in field order: the CSV header and the JSON series keys.
ObservableSeries.COLUMNS = tuple(field.name for field in fields(ObservableSeries))


def _block_columns(
    c: np.ndarray, offdiagonal: np.ndarray, weights: np.ndarray, sums: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """The per-time sums (6, n) of a complex block (rows, n) viewed as floats
    c (rows, 2n), one (re, im) pair of columns per time, written into sums.

    sums[:4] is weights @ P, every moment of every time from one product
    with the weights P = re^2 + im^2; sums[4] is sum P log2 P and sums[5]
    sum e_i Re(c_i* c_{i+1}), e the offdiagonal (+0.0 from one row's (0, 2n)
    coherences). scratch is a flat float array of at least 2 rows n,
    overwritten here: P and a second (rows, n) array, then the coherences.
    """
    rows, n = c.shape[0], c.shape[1] // 2
    p, terms = scratch[: 2 * rows * n].reshape(2, rows, n)
    np.multiply(c[:, 0::2], c[:, 0::2], out=p)
    np.multiply(c[:, 1::2], c[:, 1::2], out=terms)
    p += terms
    np.matmul(weights, p, out=sums[:4])
    np.log2(np.maximum(p, _ENTROPY_FLOOR, out=terms), out=terms)
    np.einsum("ij,ij->j", p, terms, out=sums[4])
    # Re(c_i* c_{i+1}) = re re' + im im': the products on the floats, then
    # their sums over rows folded pairwise.
    cross = scratch[: 2 * (rows - 1) * n].reshape(rows - 1, 2 * n)
    np.multiply(c[:-1], c[1:], out=cross)
    pairs = offdiagonal @ cross
    np.add(pairs[0::2], pairs[1::2], out=sums[5])


def _finish(sums: np.ndarray, n_total: int, sector: bool) -> tuple:
    """Turn a trajectory's row sums (_block_columns) into every observable
    column but t, in place, and return them in ObservableSeries order.

    Each sum is divided by the norm T = sums[0]; sums[5] is scratch once the
    energy has its coherence part, which is +0.0 on a basis of one row.
    """
    total, imbalance, variance, energy, entropy, spare = sums
    if not np.isfinite(total).all():
        raise ValueError("state norm is not finite: a coefficient is NaN, inf or too large")
    if not total.all():
        raise ZeroNormError("state has zero norm")
    sums[1:5] /= total
    spare *= 2.0
    spare /= total
    energy += spare
    np.subtract(np.log2(total, out=spare), entropy, out=entropy)
    # In a sector the d row summed the paired weights: their share adds to
    # the entropy, and the imbalance is 0 / T.
    entropy += imbalance if sector else 0.0
    if sector:
        np.divide(0.0, total, out=imbalance)
    imbalance += 0.0  # never -0.0
    variance -= np.square(imbalance, out=spare)
    np.maximum(variance, 0.0, out=variance)
    np.divide(imbalance, max(n_total, 1), out=spare)  # N = 0: imbalance is +0.0
    np.subtract(np.sqrt(total, out=total), 1.0, out=total)
    np.abs(total, out=total)
    return imbalance, spare, variance, entropy, total, energy


def compute_series(blocks, t_grid, h: TridiagonalHamiltonian) -> ObservableSeries:
    """Observables along a trajectory delivered as consecutive complex blocks.

    blocks is usually spectral.evolve_series over t_grid: the coefficients
    of successive grid times, (rows, n) with one column per time, whose
    columns together match t_grid. The rows are the Basis a GridPropagator
    carries (built on t_grid, else refused), or else the whole Fock basis.
    Memory holds the output columns, one block and scratch of its size; a
    C-contiguous complex128 block is reduced where it lies, any other is
    copied first. The blocks' sums fill the output columns, which _finish
    turns into the observables.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    sums = np.empty((len(ObservableSeries.COLUMNS) - 1, t.size))
    if isinstance(blocks, GridPropagator) and not np.array_equal(blocks.t, t):
        raise ValueError("t_grid is not the grid the propagator was built on")
    basis = blocks.basis if isinstance(blocks, GridPropagator) else Basis(h.dim, np.arange(h.dim))
    if basis.dim != h.dim:
        raise ValueError("state dimension does not match Hamiltonian")
    diagonal, offdiagonal = basis.hamiltonian(h)
    # The moment rows (1, d, d^2, diagonal), d = N - 2n, the first giving the
    # norm. In a sector d is odd, so its row would be 0; a paired row splits
    # its weight q over two Fock states, -2 (q/2) log2(q/2) = -q log2 q + q,
    # so the d row sums those q for the entropy instead.
    rows = basis.rows.size
    d = imbalance_diagonal(h.n_total)[basis.rows]
    weights = np.stack([np.ones(rows), basis.paired if basis.sector else d, d**2, diagonal])
    scratch = None
    start = 0
    for block in blocks:
        c = np.ascontiguousarray(block, dtype=complex).view(np.float64)
        if c.shape[0] != rows:
            raise ValueError("state dimension does not match Hamiltonian")
        n = c.shape[1] // 2
        if start + n > t.size:
            raise ValueError("t_grid and states must have equal length")
        if scratch is None or 2 * n * rows > scratch.size:
            scratch = np.empty(2 * n * rows)
        _block_columns(c, offdiagonal, weights, sums[:, start : start + n], scratch)
        start += n
    if start != t.size:
        raise ValueError("t_grid and states must have equal length")
    columns = _finish(sums, h.n_total, basis.sector is not None)
    return ObservableSeries(t, *columns)


def _state_series(state: StateVector) -> ObservableSeries:
    # One column; the energy-free observables need no couplings, so the
    # Hamiltonian is the zero one.
    h = build_hamiltonian(CouplingConfig(state.n_total))
    return compute_series([state.coefficients[:, None]], [0.0], h)


def expectation_imbalance(state: StateVector) -> float:
    """<N1 - N2> = sum_n p_n (N - 2n)."""
    return float(_state_series(state).imbalance[0])


def variance_imbalance(state: StateVector) -> float:
    """<(N1-N2)^2> - <N1-N2>^2, clamped at zero against round-off."""
    return float(_state_series(state).variance[0])


def entanglement_entropy(state: StateVector) -> float:
    """Mode entanglement in bits, in [0, log2(N+1)]."""
    return float(_state_series(state).entanglement_bits[0])
