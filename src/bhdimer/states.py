"""Initial-state factories in the fixed-N Fock basis |N-n, n>.

All factories return analytically normalized, real coefficient vectors;
phases only ever appear through time evolution.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .spectral import StateVector

__all__ = ["cat", "fock", "maximally_entangled", "parse_state"]

_FOCK_RE = re.compile(r"^fock:\s*(-?\d+)\s*,\s*(-?\d+)$")


def fock(m: int, n: int) -> StateVector:
    """Number state |m, n>: m bosons in mode 1, n in mode 2."""
    if m < 0 or n < 0:
        raise ValueError(f"occupations must be >= 0, got ({m}, {n})")
    c = np.zeros(m + n + 1, dtype=np.complex128)
    c[n] = 1.0
    return StateVector(c)


def cat(n_total: int) -> StateVector:
    """Even superposition of the two extreme states, (|N,0> + |0,N>)/sqrt(2).

    Needs N >= 1; at N = 0 the two components coincide and the 1/sqrt(2)
    normalization no longer applies.
    """
    if n_total < 1:
        raise ValueError(f"cat state needs n_total >= 1, got {n_total}")
    c = np.zeros(n_total + 1, dtype=np.complex128)
    c[0] = c[n_total] = math.sqrt(0.5)
    return StateVector(c)


def maximally_entangled(n_total: int) -> StateVector:
    """Uniform superposition over all N+1 basis states."""
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    dim = n_total + 1
    c = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return StateVector(c)


def parse_state(descriptor: str, n_total: int) -> StateVector:
    """Build a state from the CLI mini-language: "fock:m,n" | "cat" | "me".

    The descriptor must match the configured total number: fock:m,n requires
    m + n == n_total.
    """
    text = descriptor.strip()
    if text == "cat":
        return cat(n_total)
    if text == "me":
        return maximally_entangled(n_total)
    match = _FOCK_RE.match(text)
    if match:
        m, n = int(match.group(1)), int(match.group(2))
        if m + n != n_total:
            raise ValueError(
                f"{descriptor!r} has {m + n} bosons but the configuration "
                f"fixes N = {n_total}"
            )
        return fock(m, n)
    raise ValueError(
        f"cannot parse initial state {descriptor!r}; "
        'expected "fock:m,n", "cat" or "me"'
    )
