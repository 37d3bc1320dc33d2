"""Exact truncated-Fock-space evolution under the effective Hamiltonian.

The Hamiltonian ``H = i xi1 a1^dag c^dag - i xi1* a1 c + i xi2 a2^dag c -
i xi2* a2 c^dag`` is built from ``params.COUPLING_TERMS`` on a (cavity1,
cavity2, spin) layout; the degenerate variant identifies the two cavities.  Starting from vacuum,
pair creation and exchange only ever reach a small invariant block of the
truncated space (the ``n2 - n1 + n3 = 0`` lattice, or one ``n_a + n_c``
parity sector for the degenerate variant).  Evolution finds the basis states
that ``H`` connects to the initial state's support, diagonalizes ``H`` on
that block once, and builds every sample from the eigenbasis.  Nothing
leaves the block, so the restriction is exact for any Hermitian ``H``,
whether or not it conserves a charge.

State comparisons across routes are gauged by the phase of the
largest-magnitude amplitude, since the closed-form amplitude table fixes
phases only up to convention (its alphas are real non-negative); exact
phase-faithful agreement therefore holds for real non-negative couplings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import closed_form
from .errors import IntegrationError, TruncationWarning
from .fock import (
    FockOperator,
    FockState,
    ModeLayout,
    mode_annihilator,
    top_level_mask,
    vacuum_state,
)
from .params import COUPLING_TERMS, CONSERVED_CHARGE, EffectiveCouplings, coupling_pair

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "build_effective_hamiltonian",
    "conserved_number_operator",
    "Trajectory",
    "evolve_state",
    "relative_number_squeezing",
    "fidelity_with_target",
    "target_state",
    "analytic_state",
    "gauge_phase",
    "degenerate_mode_evolve",
    "quadrature_variances",
]

_NORM_DRIFT_PER_STEP = 1e-8
_LEAKAGE_THRESHOLD = 1e-6


def _hamiltonian(c, layout: ModeLayout, modes, terms=COUPLING_TERMS) -> FockOperator:
    """Sum of ``i xi T - i xi* T^dag`` over ``terms`` (see ``COUPLING_TERMS``), rates from ``c``.

    ``modes[m]`` is the layout mode that plays model mode ``m`` (cavity 1, cavity 2, spin).
    """
    a = {m: mode_annihilator(layout, m).matrix for m in set(modes)}
    H = 0
    for (kind, j, k), xi in zip(terms, coupling_pair(c)):
        T = a[modes[j]].conj().T @ (a[modes[k]].conj().T if kind == "pair" else a[modes[k]])
        H = H + 1j * xi * T - 1j * np.conj(xi) * T.conj().T
    return FockOperator(H.tocsr(), layout)


def build_effective_hamiltonian(c, layout: ModeLayout) -> FockOperator:
    """Hermitian three-oscillator Hamiltonian on the truncated space.

    ``<1,0,1| H |0,0,0> = i xi1`` (pair creation in cavity 1 and the spin),
    and ``[H, a2^dag a2 - a1^dag a1 + c^dag c] = 0`` on the whole truncated
    space: every nonzero matrix element conserves that combination, and
    boundary elements are simply absent.  ``c`` may be an
    :class:`EffectiveCouplings` or a raw ``(xi1, xi2)`` pair.
    """
    if layout.n_modes != 3:
        raise ValueError("effective Hamiltonian needs a three-mode layout")
    return _hamiltonian(c, layout, (0, 1, 2))


def conserved_number_operator(layout: ModeLayout) -> FockOperator:
    """The constant of motion ``n2 - n1 + n3`` (diagonal), weighted by ``CONSERVED_CHARGE``."""
    import scipy.sparse as sp

    diag = np.dot(CONSERVED_CHARGE, layout.occupation_arrays())
    return FockOperator(sp.diags(diag.astype(complex), 0, format="csr"), layout)


@dataclass
class Trajectory:
    """Sampled states of a closed evolution with per-sample diagnostics."""

    times: list
    states: list
    occupations: list  # (n1, n2, n3) per sample
    zeta12: list
    leakage: list  # total population with any mode at its top level
    norms: list
    warnings: list = field(default_factory=list)


def _hermiticity_check(H: sp.spmatrix):
    delta = abs(H - H.conj().T)
    scale = max(1.0, abs(H).max())
    if delta.nnz and delta.max() > 1e-12 * scale:
        raise ValueError("Hamiltonian is not Hermitian")


def _reachable(H: sp.spmatrix, psi: np.ndarray) -> np.ndarray:
    """Indices of the basis states ``H`` connects, in any number of steps, to ``psi``'s support."""
    links = abs(H)
    reach = psi != 0
    while True:
        grown = reach | ((links @ reach.astype(float)) != 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _zeta12(p: np.ndarray, occ) -> float:
    """``Var(n1 - n2) / (n1 + n2)`` from basis populations ``p`` and their occupations."""
    den = float(p @ occ[0]) + float(p @ occ[1])
    if den < 1e-14:
        return 1.0
    diff = (occ[0] - occ[1]).astype(float)
    mean = float(p @ diff)
    var = float(p @ diff**2) - mean**2
    return var / den


def evolve_state(
    H: FockOperator,
    psi0: FockState,
    times,
    leakage_threshold: float = _LEAKAGE_THRESHOLD,
) -> Trajectory:
    """Evolve ``|psi(t)> = exp(-i H t) |psi0>`` and record diagnostics per sample.

    ``H`` is restricted to the basis states reachable from the support of
    ``psi0`` (no matrix element of ``H`` leaves that block), diagonalized there
    once by ``eigh``, and each sample is ``P diag(exp(-i w t)) P^dag psi0``
    embedded back into the full layout.  Sample 0 is ``psi0`` itself.

    Parameters
    ----------
    H : FockOperator
        Hermitian generator.
    psi0 : FockState
        Initial state on the same layout.
    times : sequence of float
        Sorted ascending, starting at 0.
    leakage_threshold : float
        Top-level population above which a truncation warning is attached.

    Raises
    ------
    IntegrationError
        If the norm drifts by more than 1e-8 between consecutive samples.
    """
    if H.layout != psi0.layout:
        raise ValueError("Hamiltonian and state layouts differ")
    times = [float(t) for t in times]
    if not times or times[0] != 0.0:
        raise ValueError("sample times must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly ascending")
    _hermiticity_check(H.matrix)

    layout = H.layout
    block = _reachable(H.matrix, psi0.amplitudes)
    w, P = np.linalg.eigh(H.matrix[block][:, block].toarray())
    coeffs = P.conj().T @ psi0.amplitudes[block]
    occ = [o[block] for o in layout.occupation_arrays()]
    boundary = top_level_mask(layout)[block]

    traj = Trajectory([], [], [], [], [], [])
    prev_norm = float(np.linalg.norm(psi0.amplitudes))
    warned = False
    for t in times:
        if t == 0.0:
            psi = psi0.amplitudes.copy()
        else:
            psi = np.zeros(layout.dim, dtype=complex)
            psi[block] = P @ (np.exp(-1j * w * t) * coeffs)
        amps = psi[block]
        norm = float(np.linalg.norm(amps))
        drift = abs(norm - prev_norm)
        if drift > _NORM_DRIFT_PER_STEP:
            raise IntegrationError(
                f"norm drifted by {drift:.3e} over one step (limit {_NORM_DRIFT_PER_STEP:g})"
            )
        prev_norm = norm

        p = np.abs(amps) ** 2
        n1 = float(p @ occ[0]) if layout.n_modes >= 1 else 0.0
        n2 = float(p @ occ[1]) if layout.n_modes >= 2 else 0.0
        n3 = float(p @ occ[2]) if layout.n_modes >= 3 else 0.0
        leak = float(p[boundary].sum())
        traj.times.append(t)
        traj.states.append(FockState(psi, layout))
        traj.occupations.append((n1, n2, n3))
        traj.zeta12.append(_zeta12(p, occ) if layout.n_modes == 3 else float("nan"))
        traj.leakage.append(leak)
        traj.norms.append(norm)
        if leak > leakage_threshold and not warned:
            msg = (
                f"top-level population {leak:.3e} exceeded {leakage_threshold:g} "
                f"at t={t:.6g}; truncation may bias observables"
            )
            traj.warnings.append(msg)
            warnings.warn(msg, TruncationWarning, stacklevel=2)
            warned = True
    return traj


def relative_number_squeezing(state: FockState) -> float:
    """``Var(n1 - n2) / (n1 + n2)`` for a three-mode state.

    Number operators are diagonal in the Fock basis, so this is a direct
    fourth-moment computation with no Gaussian assumption.  Returns the
    independent-states reference value 1 when the denominator is below 1e-14.
    """
    layout = state.layout
    if layout.n_modes != 3:
        raise ValueError("relative number squeezing expects a three-mode layout")
    return _zeta12(np.abs(state.amplitudes) ** 2, layout.occupation_arrays())


def target_state(layout: ModeLayout, r: float) -> FockState:
    """The two-mode squeezed target over ``|n, n>`` tensored with spin vacuum."""
    if layout.n_modes != 3:
        raise ValueError("target state expects a three-mode layout")
    n_max = min(layout.dims[0], layout.dims[1]) - 1
    amps = closed_form.tmss_amplitudes(r, n_max)
    psi = np.zeros(layout.dim, dtype=complex)
    for n in range(n_max + 1):
        psi[layout.index((n, n, 0))] = amps[n]
    return FockState(psi, layout)


def fidelity_with_target(state: FockState, r: float) -> float:
    """Overlap ``|<target|state>|^2`` with the magnitude-normalized target."""
    if r <= 1:
        raise ValueError("r must exceed 1")
    tgt = target_state(state.layout, r)
    return float(abs(np.vdot(tgt.amplitudes, state.amplitudes)) ** 2)


def analytic_state(c: EffectiveCouplings, t: float, layout: ModeLayout, tail_tol=1e-6) -> FockState:
    """Closed-form evolved state embedded on the given layout.

    The amplitude table entry (m, n) populates the basis state
    ``(m + n, n, m)``; entries outside the layout are dropped, so the result
    is truncated the same way as the dynamical route and renormalized there.
    """
    if layout.n_modes != 3:
        raise ValueError("analytic state expects a three-mode layout")
    d1, d2, d3 = layout.dims
    table = closed_form.evolved_amplitudes(c, t, m_max=d3 - 1, n_max=d2 - 1, tail_tol=tail_tol)
    psi = np.zeros(layout.dim, dtype=complex)
    for m in range(d3):
        for n in range(d2):
            if m + n < d1:
                psi[layout.index((m + n, n, m))] = table[m, n]
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("layout retains none of the analytic state")
    return FockState(psi / nrm, layout)


def gauge_phase(state: FockState) -> FockState:
    """Rotate the global phase so the largest-magnitude amplitude is real positive."""
    amps = state.amplitudes
    k = int(np.argmax(np.abs(amps)))
    ph = amps[k] / abs(amps[k]) if amps[k] != 0 else 1.0
    return FockState(amps / ph, state.layout)


def quadrature_variances(state: FockState, mode: int, phases) -> np.ndarray:
    """``Var((a e^{-i phi} + a^dag e^{i phi}) / sqrt 2)`` on a grid of phases.

    The vacuum reference level is 1/2.
    """
    layout = state.layout
    a = mode_annihilator(layout, mode).matrix
    psi = state.amplitudes
    apsi = a @ psi
    n_exp = float(np.vdot(apsi, apsi).real)
    aa = complex(np.vdot(psi, a @ apsi))
    a_mean = complex(np.vdot(psi, apsi))
    phases = np.asarray(phases, dtype=float)
    second = 0.5 * (1.0 + 2.0 * n_exp + 2.0 * (np.exp(-2j * phases) * aa).real)
    mean = np.sqrt(2.0) * (np.exp(-1j * phases) * a_mean).real
    return second - mean**2


def degenerate_mode_evolve(
    c,
    layout2: ModeLayout,
    t: float,
    phase_samples: int,
) -> float:
    """Minimum cavity quadrature variance of the degenerate evolution from vacuum.

    Evolves the single-cavity variant to time ``t`` and minimizes the
    quadrature variance over a grid of ``phase_samples`` phases in [0, pi).
    """
    if phase_samples < 1:
        raise ValueError("phase_samples must be positive")
    if layout2.n_modes != 2:
        raise ValueError("degenerate evolution needs a two-mode (cavity, spin) layout")
    # both cavities of the model are the one layout cavity
    H = _hamiltonian(c, layout2, (0, 0, 1))
    traj = evolve_state(H, vacuum_state(layout2), [0.0, t] if t > 0 else [0.0])
    state = traj.states[-1]
    phis = np.arange(phase_samples) * np.pi / phase_samples
    return float(np.min(quadrature_variances(state, 0, phis)))
