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
    """Per-time observables over a grid, stored column-wise."""

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
            a = np.asarray(getattr(self, name), dtype=np.float64)
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
    c: np.ndarray, offdiagonal: np.ndarray, weights: np.ndarray, n_total: int,
    scratch: np.ndarray,
) -> tuple:
    """Every observable column but t for a complex block (rows, n) viewed as
    floats c (rows, 2n), one (re, im) pair of columns per time.

    The one implementation of the formulas: weights holds the moment rows
    compute_series builds, and offdiagonal couples neighbouring rows. scratch
    is a flat float array of at least 2 rows n, overwritten here: the weights
    P = re^2 + im^2 and a second (rows, n) array, then the coherences
    (rows - 1, 2n). Every moment of every time comes from one product with
    P; only those sums are divided by the norm T, never the block.
    """
    rows, n = c.shape[0], c.shape[1] // 2
    p, terms = scratch[: 2 * rows * n].reshape(2, rows, n)
    np.multiply(c[:, 0::2], c[:, 0::2], out=p)
    np.multiply(c[:, 1::2], c[:, 1::2], out=terms)
    p += terms
    moments = weights @ p
    total = moments[0]
    if np.any(total == 0.0):
        raise ZeroNormError("state has zero norm")
    moments[1:] /= total
    imbalance = moments[1] + 0.0
    variance = np.maximum(moments[2] - imbalance**2, 0.0)
    energy = moments[3]
    np.log2(np.maximum(p, _ENTROPY_FLOOR, out=terms), out=terms)
    entropy = np.log2(total) - np.einsum("ij,ij->j", p, terms) / total
    entropy += moments[4:].sum(axis=0)
    if offdiagonal.size:
        # Re(c_i* c_{i+1}) = re re' + im im': the products on the floats,
        # then their sums over rows folded pairwise.
        cross = scratch[: 2 * (rows - 1) * n].reshape(rows - 1, 2 * n)
        np.multiply(c[:-1], c[1:], out=cross)
        sums = offdiagonal @ cross
        energy += 2.0 * (sums[0::2] + sums[1::2]) / total
    return (
        imbalance,
        imbalance / n_total if n_total else np.zeros_like(imbalance),
        variance,
        entropy,
        np.abs(np.sqrt(total) - 1.0),
        energy,
    )


def compute_series(blocks, t_grid, h: TridiagonalHamiltonian) -> ObservableSeries:
    """Observables along a trajectory delivered as consecutive complex blocks.

    blocks is usually spectral.evolve_series over t_grid: the coefficients
    of successive grid times, (rows, n) with one column per time, whose
    columns together match t_grid. The rows are the Basis a GridPropagator
    carries, or else the whole Fock basis. Memory holds the output columns,
    one block and scratch of its size; a C-contiguous complex128 block is
    reduced where it lies, any other is copied first.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    columns = np.empty((len(ObservableSeries.COLUMNS) - 1, t.size))
    basis = blocks.basis if isinstance(blocks, GridPropagator) else Basis(h.dim, np.arange(h.dim))
    if basis.dim != h.dim:
        raise ValueError("state dimension does not match Hamiltonian")
    diagonal, offdiagonal = basis.hamiltonian(h)
    # The moment rows (1, d, d^2, diagonal), d = N - 2n, the first giving the
    # norm. In a sector d is odd, so its row is 0, and a paired row splits its
    # weight q over two Fock states, -2 (q/2) log2(q/2) = -q log2 q + q: a
    # last row adds those q to the entropy.
    rows = basis.rows.size
    d = imbalance_diagonal(h.n_total)[basis.rows]
    moments = [np.ones(rows), np.zeros(rows) if basis.sector else d, d**2, diagonal]
    weights = np.stack(moments + [basis.paired] if basis.sector else moments)
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
        columns[:, start : start + n] = _block_columns(c, offdiagonal, weights, h.n_total, scratch)
        start += n
    if start != t.size:
        raise ValueError("t_grid and states must have equal length")
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
