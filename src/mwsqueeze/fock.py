"""Operators and state vectors on a truncated multimode Fock space.

Basis ordering is row-major over the per-mode occupation numbers with mode 0
slowest: the composite index of ``(n_0, n_1, ..., n_{k-1})`` is
``((n_0 * d_1 + n_1) * d_2 + n_2) * ...``.  This ordering is fixed so that
amplitude dumps are comparable across computational routes.

No operator matrix is built here.  A ladder operator acts on amplitudes by
:func:`mode_annihilator`, a slice of the reshaped vector along one mode's
axis, for observables and checks.  A Hamiltonian travels as a
:class:`FockOperator`, a term table with its rates on a layout, Hermitian by
construction; :mod:`fock_dynamics` builds its entries where it evolves a
state, by index arithmetic on these composite indices.  A state is a plain
dense complex vector of length ``layout.dim``.
Truncation is silent: a ladder operator simply has no matrix element out of
the top level.  The evolution routines report the population on the top
levels (:func:`at_top_level`) as their leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import COUPLING_TERMS

__all__ = [
    "ModeLayout",
    "FockOperator",
    "mode_annihilator",
    "vacuum_state",
    "at_top_level",
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
    """A Hamiltonian on the composite space: ``sum i xi T - i xi* T^dag`` over a term table, on a layout.

    The rates ``(xi1, xi2)`` come from ``c`` (see ``params.coupling_pair``)
    and pair with ``terms`` in order; a term ``(kind, j, k)`` (see
    ``params.COUPLING_TERMS``) acts on the layout modes ``modes[j]`` and
    ``modes[k]``.  Each term enters with its conjugate, so the operator is
    Hermitian by construction.  It holds no entries:
    ``fock_dynamics.evolve_state`` builds them from this description.
    """

    c: object
    layout: ModeLayout
    modes: tuple = (0, 1, 2)
    terms: tuple = COUPLING_TERMS


def mode_annihilator(layout: ModeLayout, mode: int, psi: np.ndarray, dagger: bool = False) -> np.ndarray:
    """``a psi`` (or ``a^dag psi``) for the annihilator ``a`` of one mode, along the last axis of ``psi``.

    ``psi`` is one vector of length ``layout.dim`` or a stack of them.  Its
    last axis is split into the modes before, this mode and the modes after,
    and shifted along this mode's axis: ``(a psi)[n] = sqrt(n + 1) psi[n +
    1]`` and ``(a^dag psi)[n + 1] = sqrt(n + 1) psi[n]``, zero at the level
    nothing maps to.
    The top truncation level has no outgoing ``a^dag`` element, so ``[a,
    a^dag] = 1 - d_mode (top-level projector)`` on that mode.
    """
    if not 0 <= mode < layout.n_modes:
        raise ValueError(f"mode index {mode} outside 0..{layout.n_modes - 1}")
    d = layout.dims[mode]
    psi = np.asarray(psi)
    x = psi.reshape(psi.shape[:-1] + (math.prod(layout.dims[:mode]), d, math.prod(layout.dims[mode + 1:])))
    f = np.sqrt(np.arange(1.0, d))[:, None]
    out = np.zeros_like(x)
    if dagger:
        out[..., 1:, :] = f * x[..., :-1, :]
    else:
        out[..., :-1, :] = f * x[..., 1:, :]
    return out.reshape(psi.shape)


def vacuum_state(layout: ModeLayout) -> np.ndarray:
    psi = np.zeros(layout.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def at_top_level(occupations, dims) -> np.ndarray:
    """Whether any mode of each state is at its top truncation level, from the modes' occupation arrays.

    The probability mass on these states is the truncation-leakage diagnostic
    used by the evolution routines.
    """
    return np.logical_or.reduce([o == d - 1 for o, d in zip(occupations, dims)])

