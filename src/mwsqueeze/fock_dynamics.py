"""Exact truncated-Fock-space evolution under the effective Hamiltonian.

The Hamiltonian ``H = i xi1 a1^dag c^dag - i xi1* a1 c + i xi2 a2^dag c -
i xi2* a2 c^dag`` is built from ``params.COUPLING_TERMS`` over the ladder
operators of a (cavity1, cavity2, spin) layout; the degenerate variant
passes its one cavity for both, and :mod:`raman` builds its effective model
from the same table.  Starting from vacuum, pair creation and exchange only
ever reach a small invariant block of the truncated space (the
``n2 - n1 + n3 = 0`` lattice, or one ``n_a + n_c`` parity sector for the
degenerate variant).  Evolution finds the basis states that ``H`` connects
to the initial state's support, factorises ``H`` on that block once, and
builds all samples as one stacked product.  There are two cases: every term
of the table moves the spin exactly once and adds no diagonal, so on a
bipartite block ``H = [[0, B], [B^dag, 0]]`` and one thin SVD of the
even-to-odd coupling ``B`` gives ``exp(-i H t)`` exactly; any other block
(raman's static-frame generator, whose diagonal joins a state to itself)
takes one ``eigh`` of ``H``.  Nothing leaves the block, so the restriction
is exact for any Hermitian ``H``, whether or not it conserves a charge.
The same propagator, :func:`_propagate`, evolves the microscopic and
effective models of :mod:`raman`; it is the package's only state-vector
propagator.

States are plain complex vectors of length ``layout.dim`` and ladder
operators plain CSR matrices; a Hamiltonian travels as a
:class:`~mwsqueeze.fock.FockOperator` only because :func:`evolve_state`
needs its layout.

State comparisons across routes are gauged by the phase of the
largest-magnitude amplitude, since the closed-form amplitude table fixes
phases only up to convention (its alphas are real non-negative); exact
phase-faithful agreement therefore holds for real non-negative couplings.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import closed_form
from .errors import IntegrationError, TruncationWarning
from .fock import (
    FockOperator,
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
]

_NORM_DRIFT_PER_STEP = 1e-8
_LEAKAGE_THRESHOLD = 1e-6


def _hamiltonian(c, ops, terms=COUPLING_TERMS) -> sp.csr_matrix:
    """Sum of ``i xi T - i xi* T^dag`` over ``terms`` (see ``COUPLING_TERMS``), rates from ``c``.

    ``ops`` are the sparse annihilators of the model modes (cavity 1, cavity 2,
    spin) on one basis.  ``T`` applies its lowering factor, if any, first and
    ``T^dag`` is its conjugate transpose, so no product passes through a
    state above the basis's truncation.
    """
    H = 0
    for (kind, j, k), xi in zip(terms, coupling_pair(c)):
        T = ops[j].conj().T @ (ops[k].conj().T if kind == "pair" else ops[k])
        H = H + 1j * xi * T - 1j * np.conj(xi) * T.conj().T
    return H.tocsr()


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
    ops = [mode_annihilator(layout, m) for m in range(3)]
    return FockOperator(_hamiltonian(c, ops), layout)


def conserved_number_operator(layout: ModeLayout) -> sp.csr_matrix:
    """The constant of motion ``n2 - n1 + n3`` (diagonal), weighted by ``CONSERVED_CHARGE``."""
    import scipy.sparse as sp

    diag = np.dot(CONSERVED_CHARGE, layout.occupation_arrays())
    return sp.diags(diag.astype(complex), 0, format="csr")


@dataclass
class Trajectory:
    """Sampled observables of a closed evolution, one array entry (or row) per sample.

    ``states`` embeds a sample into a full-layout amplitude vector only
    when it is accessed; the trajectory itself keeps the reachable block,
    as ``states.block`` (basis indices) and ``states.amps`` (the
    ``(n, |block|)`` amplitude stack).
    """

    times: np.ndarray
    states: Sequence
    occupations: np.ndarray  # (n, n_modes)
    zeta12: np.ndarray  # nan unless the layout has three modes
    leakage: np.ndarray  # total population with any mode at its top level
    norms: np.ndarray


class _BlockStates(Sequence):
    """Full-layout amplitude vectors of an ``(n, |block|)`` stack, embedded on access."""

    def __init__(self, block, amps, layout):
        self.block, self.amps, self.layout = block, amps, layout

    def __len__(self):
        return len(self.amps)

    def __getitem__(self, i):
        psi = np.zeros(self.layout.dim, dtype=complex)
        psi[self.block] = self.amps[i]
        return psi


def _hermiticity_check(H: sp.spmatrix):
    delta = abs(H - H.conj().T)
    scale = max(1.0, abs(H).max())
    if delta.nnz and delta.max() > 1e-12 * scale:
        raise ValueError("Hamiltonian is not Hermitian")


def _reachable(H: sp.csr_matrix, psi: np.ndarray):
    """The basis states ``H`` connects, in any number of steps, to ``psi``'s support.

    One breadth-first walk over ``H``'s stored nonzeros, seeded at the first
    unvisited support state of each connected component, colours every state
    by the parity of its hop distance from that seed.  Returns the sorted
    block indices and, per block state, whether its colour is odd; the
    colours are ``None`` when some element of ``H`` (a diagonal one included)
    joins two states of one colour, so that ``H`` is not bipartite there.
    """
    indptr, indices = H.indptr, H.indices
    linked = H.data != 0
    colour = np.full(H.shape[0], -1, dtype=np.int8)
    bipartite = True
    for seed in np.flatnonzero(psi):
        if colour[seed] >= 0:
            continue
        colour[seed] = 0
        frontier, c = np.array([seed]), 0
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            # stored positions of every frontier row, concatenated
            pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
            nbrs = indices[pos[linked[pos]]]
            bipartite &= not np.any(colour[nbrs] == c)
            c ^= 1
            frontier = np.unique(nbrs[colour[nbrs] < 0])
            colour[frontier] = c
    block = np.flatnonzero(colour >= 0)
    return block, (colour[block] == 1 if bipartite else None)


def _propagate(H: sp.spmatrix, psi0: np.ndarray, times: np.ndarray):
    """``exp(-i H t) psi0`` at every time, on the block of basis states reachable from ``psi0``.

    Returns the block's indices and the ``(len(times), |block|)`` amplitude
    stack; no matrix element of the Hermitian ``H`` leaves the block, and
    rows at ``t = 0`` are ``psi0`` itself.  Two exact cases:

    * bipartite block (every coupling Hamiltonian, whose terms each move the
      spin once): ``H = [[0, B], [B^dag, 0]]`` between the even and odd
      states of :func:`_reachable`'s colouring, and one thin SVD
      ``B = U S V^dag`` gives ``even(t) = psi_e + U ((cos St - 1) U^dag psi_e
      - i sin St V^dag psi_o)`` and the mirrored odd rows;
    * otherwise (raman's static-frame generator, whose diagonal joins a
      state to itself): one ``eigh`` of ``H`` on the block.
    """
    H = H.tocsr()
    block, odd = _reachable(H, psi0)
    if odd is None:
        w, P = np.linalg.eigh(H[block][:, block].toarray())
        coeffs = P.conj().T @ psi0[block]
        amps = (np.exp(-1j * np.outer(times, w)) * coeffs) @ P.T
    else:
        even_idx, odd_idx = block[~odd], block[odd]
        U, s, Vh = np.linalg.svd(H[even_idx][:, odd_idx].toarray(), full_matrices=False)
        psi_e, psi_o = psi0[even_idx], psi0[odd_idx]
        ce, co = U.conj().T @ psi_e, Vh @ psi_o
        ts = np.outer(times, s)
        cos1, msin = np.cos(ts) - 1.0, -1j * np.sin(ts)
        amps = np.empty((len(times), len(block)), dtype=complex)
        amps[:, ~odd] = psi_e + (cos1 * ce + msin * co) @ U.T
        amps[:, odd] = psi_o + (cos1 * co + msin * ce) @ Vh.conj()
    amps[times == 0.0] = psi0[block]
    return block, amps


def _zeta12(p: np.ndarray, occ) -> np.ndarray:
    """``Var(n1 - n2) / (n1 + n2)`` from basis populations ``p`` and their occupations.

    ``p`` holds one sample per row (or is one sample); the independent-states
    value 1 where the denominator is below 1e-14.
    """
    den = p @ occ[0] + p @ occ[1]
    diff = (occ[0] - occ[1]).astype(float)
    mean = p @ diff
    var = p @ diff**2 - mean**2
    vacuum = den < 1e-14
    return np.where(vacuum, 1.0, var / np.where(vacuum, 1.0, den))


def evolve_state(H: FockOperator, psi0: np.ndarray, times) -> Trajectory:
    """Evolve ``|psi(t)> = exp(-i H t) |psi0>`` and record diagnostics per sample.

    Every sample comes from one stacked product (:func:`_propagate`): ``H``
    is restricted to the basis states reachable from the support of
    ``psi0`` and factorised there once, by one thin SVD of its even-to-odd
    half-block ``B`` when ``H`` is bipartite on the block (every coupling
    Hamiltonian), else by one ``eigh``; sample 0 is ``psi0`` itself.
    Occupations, zeta12, leakage and norms are array reductions over the
    block's populations, and ``states`` embeds a sample into a full-layout
    amplitude vector only when it is accessed.

    Parameters
    ----------
    H : FockOperator
        Hermitian generator and the layout it acts on.
    psi0 : ndarray
        Initial amplitudes, a vector of length ``H.layout.dim``.
    times : sequence of float
        Sorted ascending, starting at 0.

    Raises
    ------
    ValueError
        If ``psi0`` is not a vector of length ``H.layout.dim``, or the
        times do not start at 0 and ascend strictly.
    IntegrationError
        If the norm drifts by more than 1e-8 between consecutive samples.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.layout.dim,):
        raise ValueError(f"state shape {psi0.shape} does not match layout dimension {H.layout.dim}")
    times = np.asarray(times, dtype=float)
    if not times.size or times[0] != 0.0:
        raise ValueError("sample times must start at 0")
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("sample times must be strictly ascending")
    _hermiticity_check(H.matrix)

    layout = H.layout
    block, amps = _propagate(H.matrix, psi0, times)
    occ = [o[block] for o in layout.occupation_arrays()]
    p = np.abs(amps) ** 2
    norms = np.sqrt(p.sum(axis=1))
    drift = np.abs(np.diff(norms, prepend=np.linalg.norm(psi0)))
    first = np.argmax(drift > _NORM_DRIFT_PER_STEP)
    if drift[first] > _NORM_DRIFT_PER_STEP:
        raise IntegrationError(
            f"norm drifted by {drift[first]:.3e} over one step (limit {_NORM_DRIFT_PER_STEP:g})"
        )
    leakage = p[:, top_level_mask(layout)[block]].sum(axis=1)
    traj = Trajectory(
        times,
        _BlockStates(block, amps, layout),
        np.column_stack([p @ o for o in occ]),
        _zeta12(p, occ) if layout.n_modes == 3 else np.full(len(times), np.nan),
        leakage,
        norms,
    )
    over = np.flatnonzero(leakage > _LEAKAGE_THRESHOLD)
    if over.size:
        warnings.warn(
            f"top-level population {leakage[over[0]]:.3e} exceeded {_LEAKAGE_THRESHOLD:g} "
            f"at t={times[over[0]]:.6g}; truncation may bias observables",
            TruncationWarning,
            stacklevel=2,
        )
    return traj


def relative_number_squeezing(psi: np.ndarray, layout: ModeLayout) -> float:
    """``Var(n1 - n2) / (n1 + n2)`` for a three-mode state.

    Number operators are diagonal in the Fock basis, so this is a direct
    fourth-moment computation with no Gaussian assumption.  Returns the
    independent-states reference value 1 when the denominator is below 1e-14.
    """
    if layout.n_modes != 3:
        raise ValueError("relative number squeezing expects a three-mode layout")
    return float(_zeta12(np.abs(psi) ** 2, layout.occupation_arrays()))


def target_state(layout: ModeLayout, r: float) -> np.ndarray:
    """The two-mode squeezed target over ``|n, n>`` tensored with spin vacuum."""
    if layout.n_modes != 3:
        raise ValueError("target state expects a three-mode layout")
    n_max = min(layout.dims[0], layout.dims[1]) - 1
    amps = closed_form.tmss_amplitudes(r, n_max)
    psi = np.zeros(layout.dim, dtype=complex)
    for n in range(n_max + 1):
        psi[layout.index((n, n, 0))] = amps[n]
    return psi


def fidelity_with_target(psi: np.ndarray, layout: ModeLayout, r: float) -> float:
    """Overlap ``|<target|psi>|^2`` with the magnitude-normalized target."""
    if r <= 1:
        raise ValueError("r must exceed 1")
    return float(abs(np.vdot(target_state(layout, r), psi)) ** 2)


def analytic_state(
    c: EffectiveCouplings, t: float, layout: ModeLayout, tail_tol=1e-6
) -> np.ndarray:
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
    return psi / nrm


def gauge_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude amplitude is real positive."""
    k = int(np.argmax(np.abs(psi)))
    ph = psi[k] / abs(psi[k]) if psi[k] != 0 else 1.0
    return psi / ph


def degenerate_mode_evolve(c, layout2: ModeLayout, times) -> np.ndarray:
    """Minimum cavity quadrature variance of the degenerate evolution from vacuum, per sample.

    Evolves the single-cavity variant (one SVD of its half-block serves every
    time; the times are checked as by :func:`evolve_state`) and returns, for each
    sample, the exact minimum over phases ``phi`` of
    ``Var((a e^{-i phi} + a^dag e^{i phi}) / sqrt 2)``, which is
    ``1/2 + <a^dag a> - |<a a>|``.  No phase grid is needed: every term
    changes ``n_a + n_c`` by 0 or 2, so from vacuum its parity is conserved,
    ``a`` maps the state into the other parity and ``<a> = 0`` exactly.
    The vacuum reference level is 1/2.
    """
    if layout2.n_modes != 2:
        raise ValueError("degenerate evolution needs a two-mode (cavity, spin) layout")
    # both cavities of the model are the one layout cavity
    a, spin = (mode_annihilator(layout2, m) for m in range(2))
    H = FockOperator(_hamiltonian(c, (a, a, spin)), layout2)
    traj = evolve_state(H, vacuum_state(layout2), times)
    # every state is zero off the block, so <a a> needs a^2 on the block only
    block, amps = traj.states.block, traj.states.amps
    aa = np.einsum("ij,ji->i", amps.conj(), (a @ a)[block][:, block] @ amps.T)
    return 0.5 + traj.occupations[:, 0] - np.abs(aa)
