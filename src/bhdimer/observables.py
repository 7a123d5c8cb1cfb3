"""Observables of the dimer state: imbalance moments and mode entanglement.

Everything reported here is a function of the basis probabilities
p_n = |c_n|^2 plus, for the energy, the nearest-neighbor coherences.
Probabilities are renormalized by their sum before use, so a state whose
norm has drifted by round-off still yields the observables of the ray it
represents; the drift itself is reported separately as norm_error.

The entanglement between the two modes of a pure state is the von Neumann
entropy of either reduced density matrix, which for fixed total number
collapses to the Shannon entropy of the basis weights,

    E = -sum_n p_n log2 p_n,

bounded by log2(N+1) (uniform weights) and 0 (a single Fock state).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import CouplingConfig, TridiagonalHamiltonian, build_hamiltonian
from .spectral import Basis, GridPropagator, StateVector

__all__ = [
    "ObservableSeries", "compute_series", "entanglement_entropy", "expectation_imbalance",
    "variance_imbalance",
]

# Weights below this underflow log2 into junk; they contribute exactly zero,
# as does an exact zero weight.
_ENTROPY_FLOOR = 1e-300


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
    cr: np.ndarray, ci: np.ndarray, offdiagonal: np.ndarray, weights: np.ndarray,
    n_total: int, p: np.ndarray, work: np.ndarray,
) -> tuple:
    """Every observable column but t for cr + i ci, one column per time.

    The one implementation of the formulas, in the basis Basis.reduction
    describes: weights holds the rows (d, d^2, diagonal) of the moments,
    then any rows whose products add to the entropy in bits, and offdiagonal
    couples neighbouring rows. p and work are C-contiguous scratch arrays of
    the block's shape, overwritten here.
    """
    np.multiply(cr, cr, out=p)
    np.multiply(ci, ci, out=work)
    p += work
    total = p.sum(axis=0)
    if np.any(total == 0.0):
        raise ValueError("state has zero norm")
    p /= total
    moments = weights @ p
    imbalance = moments[0] + 0.0
    variance = np.maximum(moments[1] - imbalance**2, 0.0)
    energy = moments[2]
    entropy = _entropy_bits(p, work) + moments[3:].sum(axis=0)
    if offdiagonal.size:
        # p is free now: the two products go into contiguous (rows-1, n)
        # leading views of the scratch.
        size = (cr.shape[0] - 1) * cr.shape[1]
        cross = work.reshape(-1)[:size].reshape(-1, cr.shape[1])
        cross_i = p.reshape(-1)[:size].reshape(-1, cr.shape[1])
        np.multiply(cr[:-1], cr[1:], out=cross)
        np.multiply(ci[:-1], ci[1:], out=cross_i)
        cross += cross_i
        energy += 2.0 * (offdiagonal @ cross) / total
    return (
        imbalance,
        imbalance / n_total if n_total else np.zeros_like(imbalance),
        variance,
        entropy,
        np.abs(np.sqrt(total) - 1.0),
        energy,
    )


def compute_series(blocks, t_grid, h: TridiagonalHamiltonian) -> ObservableSeries:
    """Observables along a trajectory delivered as consecutive (cr, ci) blocks.

    blocks is usually spectral.evolve_series over t_grid: the real and
    imaginary coefficients of successive grid times, (rows, n) with one
    column per time, whose columns together match t_grid. The rows are the
    Basis a GridPropagator carries, or else the whole Fock basis. Memory
    holds the output columns and one block.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    columns = np.empty((len(ObservableSeries.COLUMNS) - 1, t.size))
    basis = blocks.basis if isinstance(blocks, GridPropagator) else Basis(h.dim, np.arange(h.dim))
    if basis.dim != h.dim:
        raise ValueError("state dimension does not match Hamiltonian")
    offdiagonal, weights = basis.reduction(h)
    rows = weights.shape[1]
    p = work = None
    start = 0
    for cr, ci in blocks:
        if cr.shape[0] != rows:
            raise ValueError("state dimension does not match Hamiltonian")
        n = cr.shape[1]
        if start + n > t.size:
            raise ValueError("t_grid and states must have equal length")
        if p is None or n * rows > p.size:
            p, work = np.empty((2, n * rows))
        views = (a[: n * rows].reshape(rows, n) for a in (p, work))
        columns[:, start : start + n] = _block_columns(
            cr, ci, offdiagonal, weights, h.n_total, *views
        )
        start += n
    if start != t.size:
        raise ValueError("t_grid and states must have equal length")
    return ObservableSeries(t, *columns)


def _entropy_bits(p: np.ndarray, terms: np.ndarray) -> np.ndarray:
    # terms is scratch of p's shape. A weight at or below the floor gives
    # p log2(_ENTROPY_FLOOR), which is -0.0 for an exact zero and far below
    # the round-off of the sum otherwise.
    np.log2(np.maximum(p, _ENTROPY_FLOOR, out=terms), out=terms)
    terms *= p
    # -sum p log2 p; the trailing +0.0 turns -0.0 into +0.0.
    return -terms.sum(axis=0) + 0.0


def _state_series(state: StateVector) -> ObservableSeries:
    # One column; the energy-free observables need no couplings, so the
    # Hamiltonian is the zero one.
    c = state.coefficients[:, None]
    h = build_hamiltonian(CouplingConfig(state.n_total))
    return compute_series([(c.real, c.imag)], [0.0], h)


def expectation_imbalance(state: StateVector) -> float:
    """<N1 - N2> = sum_n p_n (N - 2n)."""
    return float(_state_series(state).imbalance[0])


def variance_imbalance(state: StateVector) -> float:
    """<(N1-N2)^2> - <N1-N2>^2, clamped at zero against round-off."""
    return float(_state_series(state).variance[0])


def entanglement_entropy(state: StateVector) -> float:
    """Mode entanglement in bits, in [0, log2(N+1)]."""
    return float(_state_series(state).entanglement_bits[0])
