"""Operators and state vectors on a truncated multimode Fock space.

Basis ordering is row-major over the per-mode occupation numbers with mode 0
slowest: the composite index of ``(n_0, n_1, ..., n_{k-1})`` is
``((n_0 * d_1 + n_1) * d_2 + n_2) * ...``.  This ordering is fixed so that
amplitude dumps are comparable across computational routes.

The only operators built here are the per-mode ladder operators of
:func:`mode_annihilator`, plain CSR matrices, used for observables and
checks.  Hamiltonians are built by :mod:`fock_dynamics` by index arithmetic
on these composite indices, not from the ladder operators, and paired with
their layout in a :class:`FockOperator`.  A state is a plain dense complex
vector of length ``layout.dim``.  Truncation is silent: a ladder operator
simply has no matrix element out of the top level.  Monitoring boundary population is the
caller's job via :func:`top_level_mask`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ModeLayout",
    "FockOperator",
    "mode_annihilator",
    "vacuum_state",
    "top_level_mask",
]


@dataclass(frozen=True)
class ModeLayout:
    """Truncation dimensions of the bosonic modes spanning the composite space.

    The canonical layout for the three-oscillator model is
    ``ModeLayout((d_cavity1, d_cavity2, d_spin))``; two-mode layouts are used
    for the degenerate (single cavity) variant.
    """

    dims: tuple

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise ValueError("layout needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_modes(self):
        return len(self.dims)

    @property
    def dim(self):
        """Total composite dimension (product of the per-mode dimensions)."""
        out = 1
        for d in self.dims:
            out *= d
        return out

    def index(self, occupations):
        """Composite basis index of the product Fock state ``|n_0, n_1, ...>``."""
        if len(occupations) != self.n_modes:
            raise ValueError("occupation tuple length does not match layout")
        idx = 0
        for n, d in zip(occupations, self.dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} outside [0, {d})")
            idx = idx * d + n
        return idx

    def occupation_arrays(self):
        """Per-mode occupation number of every composite basis state.

        Returns a list of ``n_modes`` integer arrays of length ``dim``; entry
        ``k`` of array ``m`` is the mode-``m`` occupation of basis state ``k``.
        """
        grids = np.unravel_index(np.arange(self.dim), self.dims)
        return [g.astype(np.int64) for g in grids]


@dataclass(frozen=True)
class FockOperator:
    """A sparse Hamiltonian on the composite space together with its layout."""

    matrix: sp.spmatrix
    layout: ModeLayout

    def __post_init__(self):
        if self.matrix.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match layout dimension {self.layout.dim}"
            )


def mode_annihilator(layout: ModeLayout, mode: int) -> sp.csr_matrix:
    """Annihilation operator of one mode, identity on the others.

    Matrix elements are the standard ``sqrt(n)`` on the first subdiagonal of
    the chosen mode's factor; the top truncation level has no outgoing
    element, so ``[a, a^dag] = 1 - (top-level projector)`` on that mode.
    Built directly as CSR: row ``i`` holds ``sqrt(n_m(i) + 1)`` at column
    ``i + stride_m`` unless mode ``m`` of state ``i`` is at its top level.
    """
    import scipy.sparse as sp

    if not 0 <= mode < layout.n_modes:
        raise ValueError(f"mode index {mode} outside 0..{layout.n_modes - 1}")
    d = layout.dims[mode]
    stride = math.prod(layout.dims[mode + 1 :])
    n = np.arange(layout.dim) // stride % d
    rows = n < d - 1
    indptr = np.concatenate(([0], np.cumsum(rows)))
    data = np.sqrt(n[rows] + 1.0).astype(complex)
    return sp.csr_matrix((data, np.flatnonzero(rows) + stride, indptr), shape=(layout.dim,) * 2)


def vacuum_state(layout: ModeLayout) -> np.ndarray:
    psi = np.zeros(layout.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def top_level_mask(layout: ModeLayout) -> np.ndarray:
    """Boolean mask of basis states with any mode at its top truncation level.

    The probability mass on these states is the truncation-leakage diagnostic
    used by the evolution routines.
    """
    occ = layout.occupation_arrays()
    mask = np.zeros(layout.dim, dtype=bool)
    for m, arr in enumerate(occ):
        mask |= arr == layout.dims[m] - 1
    return mask
