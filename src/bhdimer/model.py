"""Two-mode Bose-Hubbard dimer: configuration and Hamiltonian construction.

Two single-mode condensates coupled by Josephson tunneling are described by

    H = (k/8) (N1 - N2)^2 - (dmu/2) (N1 - N2) - (ej/2) (a1+ a2 + a2+ a1),

where k is the boson-boson scattering strength, dmu the external potential
bias between the wells and ej the tunneling coupling (hbar = 1, so all three
are inverse times). The total number N = N1 + N2 commutes with H, so for
fixed N the problem lives in the (N+1)-dimensional Fock basis

    |N - n, n>,   n = 0 .. N   (n counts bosons in mode 2).

In this basis H is real symmetric tridiagonal with

    d_n = (k/8) (N - 2n)^2 - (dmu/2) (N - 2n)
    e_n = -(ej/2) sqrt((n+1)(N-n))          couples n and n+1,

which is all this module builds; only to_dense ever densifies it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplingConfig",
    "TridiagonalHamiltonian",
    "build_hamiltonian",
    "imbalance_diagonal",
]


def read_only_array(values) -> np.ndarray:
    """values as read-only float64: a writeable array is copied in its own
    memory layout (order "K"), a read-only one is taken as it is."""
    a = np.asarray(values, dtype=np.float64)
    if a.flags.writeable:
        a = a.copy(order="K")
        a.setflags(write=False)
    return a


def as_integer(name: str, value) -> int:
    """value as an int; a TypeError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """value as a float; a TypeError unless it is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CouplingConfig:
    """Physical parameters of the dimer.

    n_total  total boson number N (fixes the Hilbert-space dimension N+1)
    k        scattering strength
    delta_mu external potential bias
    e_j      Josephson tunneling strength
    """

    n_total: int
    k: float = 0.0
    delta_mu: float = 0.0
    e_j: float = 0.0

    def __post_init__(self):
        n = as_integer("n_total", self.n_total)
        if n < 0:
            raise ValueError(f"n_total must be >= 0, got {n}")
        object.__setattr__(self, "n_total", n)
        for name in ("k", "delta_mu", "e_j"):
            value = as_real(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def ratio(self) -> float:
        """Coupling ratio k/ej; +inf when the tunneling is switched off."""
        if self.e_j == 0.0:
            return math.inf
        return self.k / self.e_j


@dataclass(frozen=True, eq=False)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal matrix stored as its element sequences.

    A single off-diagonal sequence represents both the super- and
    sub-diagonal, so the matrix is symmetric by construction.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=np.float64)
        e = np.asarray(self.offdiagonal, dtype=np.float64)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal must be a nonempty 1-d sequence")
        if e.ndim != 1 or e.size != d.size - 1:
            raise ValueError(
                f"offdiagonal must have length {d.size - 1}, got {e.size}"
            )
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(e)):
            raise ValueError("matrix elements must be finite")
        object.__setattr__(self, "diagonal", read_only_array(d))
        object.__setattr__(self, "offdiagonal", read_only_array(e))

    @property
    def dim(self) -> int:
        return self.diagonal.size

    @property
    def n_total(self) -> int:
        return self.dim - 1

    def to_dense(self) -> np.ndarray:
        """Dense (dim, dim) copy: for small systems, tests and the eigh fallback."""
        a = np.diag(self.diagonal)
        m = self.offdiagonal.size
        if m:
            idx = np.arange(m)
            a[idx, idx + 1] = self.offdiagonal
            a[idx + 1, idx] = self.offdiagonal
        return a


def imbalance_diagonal(n_total: int) -> np.ndarray:
    """Diagonal of the relative-number operator N1 - N2: (N, N-2, ..., -N)."""
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    return n_total - 2.0 * np.arange(n_total + 1)


def build_hamiltonian(config: CouplingConfig) -> TridiagonalHamiltonian:
    """Hamiltonian of the dimer in the fixed-N Fock basis |N-n, n>."""
    n = config.n_total
    d_op = imbalance_diagonal(n)
    m = np.arange(n, dtype=np.float64)
    # Elements that overflow are refused by TridiagonalHamiltonian, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = (config.k / 8.0) * d_op**2 - (config.delta_mu / 2.0) * d_op
        off = -(config.e_j / 2.0) * np.sqrt((m + 1.0) * (n - m))
    return TridiagonalHamiltonian(diag, off)
