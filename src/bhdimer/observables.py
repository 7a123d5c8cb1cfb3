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

reduce_blocks allocates one workspace of block size per call (the
probabilities, one float scratch and the entropy mask) and reduces every
block in it, so a long run allocates only length-rows columns per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CouplingConfig,
    TridiagonalHamiltonian,
    build_hamiltonian,
    imbalance_diagonal,
)
from .spectral import StateVector

__all__ = [
    "ObservableRecord",
    "ObservableSeries",
    "compute_series",
    "entanglement_entropy",
    "expectation_imbalance",
    "record",
    "reduce_blocks",
    "variance_imbalance",
]

# Weights below this underflow log2 into junk; they contribute exactly zero,
# as does an exact zero weight.
_ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class ObservableRecord:
    """One time sample: imbalance moments, entanglement and diagnostics."""

    t: float
    imbalance: float
    imbalance_scaled: float
    variance: float
    entanglement_bits: float
    norm_error: float
    energy: float


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

    COLUMNS = (
        "t",
        "imbalance",
        "imbalance_scaled",
        "variance",
        "entanglement_bits",
        "norm_error",
        "energy",
    )

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


def _block_columns(
    cr: np.ndarray,
    ci: np.ndarray,
    h: TridiagonalHamiltonian,
    weights: np.ndarray,
    p: np.ndarray,
    work: np.ndarray,
    mask: np.ndarray,
) -> tuple:
    """Every observable column but t for the coefficient rows cr + i ci.

    This is the one implementation of the formulas; the scalar functions,
    record and compute_series are views of it. weights holds the columns
    (d, d^2, diagonal) of the moments; p, work and mask are C-contiguous
    scratch arrays of the block's shape, overwritten here.
    """
    n_total = h.n_total
    np.multiply(cr, cr, out=p)
    np.multiply(ci, ci, out=work)
    p += work
    total = p.sum(axis=1)
    if np.any(total == 0.0):
        raise ValueError("state has zero norm")
    p /= total[:, None]
    moments = p @ weights
    imbalance = moments[:, 0] + 0.0
    variance = np.maximum(moments[:, 1] - imbalance**2, 0.0)
    energy = moments[:, 2]
    entropy = _entropy_bits(p, work, mask)
    if h.offdiagonal.size:
        # p is free now: the two products go into contiguous (rows, dim-1)
        # views of the scratch.
        shape = (cr.shape[0], cr.shape[1] - 1)
        cross = work.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
        cross_i = p.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
        np.multiply(cr[:, :-1], cr[:, 1:], out=cross)
        np.multiply(ci[:, :-1], ci[:, 1:], out=cross_i)
        cross += cross_i
        energy += 2.0 * (cross @ h.offdiagonal) / total
    return (
        imbalance,
        imbalance / n_total if n_total else np.zeros_like(imbalance),
        variance,
        entropy,
        np.abs(np.sqrt(total) - 1.0),
        energy,
    )


def reduce_blocks(blocks, t_grid, h: TridiagonalHamiltonian) -> ObservableSeries:
    """Observables along a trajectory delivered as consecutive (cr, ci) blocks.

    Each block holds the real and imaginary coefficient parts of successive
    grid times, one row per time; the rows of all blocks together must match
    t_grid. Blocks are reduced as they arrive, so memory holds the output
    columns and one block.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    columns = np.empty((len(ObservableSeries.COLUMNS) - 1, t.size))
    d = imbalance_diagonal(h.n_total)
    weights = np.column_stack((d, d**2, h.diagonal))
    p = work = mask = None
    row = 0
    for cr, ci in blocks:
        if cr.shape[1] != h.dim:
            raise ValueError("state dimension does not match Hamiltonian")
        n = cr.shape[0]
        if row + n > t.size:
            raise ValueError("t_grid and states must have equal length")
        if p is None or n > p.shape[0]:
            p, work = np.empty((2, n, h.dim))
            mask = np.empty((n, h.dim), dtype=bool)
        values = _block_columns(cr, ci, h, weights, p[:n], work[:n], mask[:n])
        for column, value in zip(columns, values):
            column[row : row + n] = value
        row += n
    if row != t.size:
        raise ValueError("t_grid and states must have equal length")
    return ObservableSeries(t, *columns)


def _entropy_bits(p: np.ndarray, terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # terms and mask are scratch of p's shape. log2 writes only where the
    # mask holds, so every other term is cleared first.
    np.greater(p, _ENTROPY_FLOOR, out=mask)
    terms.fill(0.0)
    np.log2(p, out=terms, where=mask)
    terms *= p
    # -sum p log2 p; the trailing +0.0 turns -0.0 into +0.0.
    return -terms.sum(axis=-1) + 0.0


def record(state: StateVector, t: float, h: TridiagonalHamiltonian) -> ObservableRecord:
    """Bundle all observables of one state at time t under Hamiltonian h."""
    c = state.coefficients[None, :]
    row = reduce_blocks([(c.real, c.imag)], [float(t)], h)
    return ObservableRecord(*(float(getattr(row, name)[0]) for name in row.COLUMNS))


def _free_record(state: StateVector) -> ObservableRecord:
    # The energy-free observables need no couplings: use the zero Hamiltonian.
    return record(state, 0.0, build_hamiltonian(CouplingConfig(state.n_total)))


def expectation_imbalance(state: StateVector) -> float:
    """<N1 - N2> = sum_n p_n (N - 2n)."""
    return _free_record(state).imbalance


def variance_imbalance(state: StateVector) -> float:
    """<(N1-N2)^2> - <N1-N2>^2, clamped at zero against round-off."""
    return _free_record(state).variance


def entanglement_entropy(state: StateVector) -> float:
    """Mode entanglement in bits, in [0, log2(N+1)]."""
    return _free_record(state).entanglement_bits


def compute_series(states, t_grid, h: TridiagonalHamiltonian) -> ObservableSeries:
    """Vectorized observables along a trajectory.

    states and t_grid must have equal length; each row of the result matches
    record(states[j], t_grid[j], h) to round-off.
    """
    states = list(states)
    if not states:
        return reduce_blocks([], t_grid, h)
    c = np.stack([s.coefficients for s in states])
    return reduce_blocks([(c.real, c.imag)], t_grid, h)
