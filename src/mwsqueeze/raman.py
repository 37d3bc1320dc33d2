"""Driven four-level ensemble model and adiabatic-elimination validation.

Atoms have levels ``g, h, e1, e2``; two classical drives and two cavity
modes form a double Raman system.  The interaction-picture Hamiltonian
carries explicit phase factors ``exp(i delta t)``; because every term shifts
a fixed diagonal combination, the model is equivalent to a static
Hamiltonian ``A + H0 + H0^dag`` in a rotated frame whose diagonal generator
``A`` commutes with all occupation observables.  That equivalence makes the
time-dependent model a single eigendecomposition of the static generator.

The validator compares the full model against the bosonized effective
coupling ``(beta2 a2 + beta1 a1^dag) c^dag + H.c.`` with
``beta_i = sqrt(N) Omega_i^* g_i / Delta_i``, built from
``params.COUPLING_TERMS`` as products of the cavity operators and the
collective ``c`` of the same excitation-capped basis, so both models evolve
from one state on one basis.  Every basis operator is a shift of the
states' composite indices (see :class:`AtomicBasis`), held as a dense
array: the desk-scale basis has at most 352 states.  The effective form
assumes the two-photon resonance condition; the ``delta_two_photon`` knob of
the full model realizes or detunes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import COUPLING_TERMS, coupling_pair

__all__ = [
    "RamanConfig",
    "AtomicBasis",
    "build_full_hamiltonian",
    "static_frame_hamiltonian",
    "effective_couplings",
    "effective_few_atom_hamiltonian",
    "adiabatic_error",
    "bosonization_residual",
]

_G, _H, _E1, _E2 = 0, 1, 2, 3


@dataclass(frozen=True)
class RamanConfig:
    """Microscopic parameters of the driven four-level ensemble."""

    omega1_rabi: complex
    omega2_rabi: complex
    g1: complex
    g2: complex
    delta1: float
    delta2: float
    delta_two_photon: float = 0.0
    n_atoms: int = 1

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")

    @property
    def dispersive_ratio(self) -> float:
        """min(|D1|, |D2|, |D1 - D2|) over the largest drive/coupling magnitude."""
        num = min(abs(self.delta1), abs(self.delta2), abs(self.delta1 - self.delta2))
        den = max(abs(self.omega1_rabi), abs(self.omega2_rabi), abs(self.g1), abs(self.g2))
        return num / den if den > 0 else math.inf


class AtomicBasis:
    """Distinguishable atoms with levels {g, h, e1, e2} times two cavity modes.

    States are kept when ``n1 + n2 + (#atoms not in g) <= excitation_cap``,
    which contains everything reachable from ``|g...g>|0,0>`` up to that
    excitation number.  Each is stored as its composite index in
    ``ModeLayout((4,) * n_atoms + (cap + 1, cap + 1))`` (atom 0 slowest,
    cavity 2 fastest), and the basis is those indices in ascending order, so
    ``|g...g>|0,0>`` is state 0.  An operator is a shift of that index on
    the states it acts on, located by ``searchsorted`` and returned as a
    dense ``(dim, dim)`` array; ``states`` (tuples ``(levels, n1, n2)``)
    and ``index`` (their positions) name the same basis.
    """

    def __init__(self, n_atoms: int, excitation_cap: int):
        if excitation_cap < 2:
            raise ValueError("excitation cap must be at least 2 for any squeezing-relevant run")
        self.n_atoms = int(n_atoms)
        self.excitation_cap = int(excitation_cap)
        dims = (4,) * self.n_atoms + (excitation_cap + 1,) * 2
        occ = np.unravel_index(np.arange(math.prod(dims)), dims)
        kept = (np.count_nonzero(occ[:-2], axis=0) + occ[-2] + occ[-1]) <= excitation_cap
        self._codes = np.flatnonzero(kept)
        self._occ = np.stack(occ)[:, kept]
        self._strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
        self.states = [(tuple(s[:-2]), s[-2], s[-1]) for s in self._occ.T.tolist()]
        self.index = {s: i for i, s in enumerate(self.states)}
        self.dim = len(self.states)

    def ground_index(self) -> int:
        """Position of ``|g...g>|0,0>``: composite index 0, so the first state."""
        return 0

    def _shift(self, mode, by, cols: np.ndarray, amps=1.0) -> np.ndarray:
        """The operator ``<s + by e_mode| op |s> = amps`` from each basis position ``s`` in ``cols``.

        ``mode`` and ``by`` may be arrays, one entry per position; hops
        leaving the basis are dropped.
        """
        target = self._codes[cols] + np.multiply(by, np.take(self._strides, mode))
        rows = np.minimum(np.searchsorted(self._codes, target), self.dim - 1)
        hit = self._codes[rows] == target
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[rows[hit], cols[hit]] = np.broadcast_to(amps, hit.shape)[hit]
        return op

    def _flip_sum(self, src: int, dst: int) -> np.ndarray:
        """``sum_j |dst_j><src_j|`` over every atom, as one shift."""
        atoms, cols = np.nonzero(self._occ[: self.n_atoms] == src)
        return self._shift(atoms, dst - src, cols)

    def annihilator(self, mode: int) -> np.ndarray:
        """Photon annihilation on cavity mode 1 or 2."""
        n = self.photon_diagonal(mode)
        cols = np.flatnonzero(n)
        return self._shift(self.n_atoms + mode - 1, -1, cols, np.sqrt(n[cols]))

    def level_population_diagonal(self, level: int) -> np.ndarray:
        return np.count_nonzero(self._occ[: self.n_atoms] == level, axis=0).astype(float)

    def photon_diagonal(self, mode: int) -> np.ndarray:
        if mode not in (1, 2):
            raise ValueError("cavity mode index must be 1 or 2")
        return self._occ[self.n_atoms + mode - 1].astype(float)

    def collective_flip(self) -> np.ndarray:
        """The bosonized lowering operator ``c = (1/sqrt N) sum_j |g_j><h_j|``."""
        return self._flip_sum(_H, _G) / math.sqrt(self.n_atoms)

    def conserved_combination_diagonal(self) -> np.ndarray:
        """Diagonal of ``n2 - n1 + N_h + N_e2``, conserved by every drive term.

        The microscopic counterpart of the effective model's constant of
        motion; useful as a truncation diagnostic along full-model runs.
        """
        return (
            self.photon_diagonal(2)
            - self.photon_diagonal(1)
            + self.level_population_diagonal(_H)
            + self.level_population_diagonal(_E2)
        )


def _coupling_blocks(r: RamanConfig, basis: AtomicBasis):
    """The four non-Hermitian blocks of the interaction Hamiltonian and their phases."""
    a1 = basis.annihilator(1)
    a2 = basis.annihilator(2)
    blocks = [
        complex(r.omega1_rabi) * basis._flip_sum(_G, _E1),
        complex(r.omega2_rabi) * basis._flip_sum(_H, _E2),
        complex(r.g1) * (basis._flip_sum(_H, _E1) @ a1),
        complex(r.g2) * (basis._flip_sum(_G, _E2) @ a2),
    ]
    phases = [r.delta1, r.delta2, r.delta1, r.delta2 - r.delta_two_photon]
    return blocks, phases


def build_full_hamiltonian(r: RamanConfig, basis: AtomicBasis, t: float) -> np.ndarray:
    """Interaction-picture Hamiltonian at time ``t`` (Hermitian-completed)."""
    blocks, phases = _coupling_blocks(r, basis)
    H = np.zeros((basis.dim, basis.dim), dtype=complex)
    for B, ph in zip(blocks, phases):
        e = np.exp(1j * ph * t)
        H = H + e * B + np.conj(e) * B.conj().T
    return H


def static_frame_hamiltonian(r: RamanConfig, basis: AtomicBasis) -> np.ndarray:
    """Time-independent generator ``A + H0 + H0^dag`` equivalent to the full model.

    ``A`` assigns energy ``delta1`` to e1, ``delta2`` to e2 and
    ``delta_two_photon`` per cavity-2 photon; the interaction-picture state
    is ``exp(i A t)`` times the static-frame state, so every observable
    commuting with ``A`` (all occupations here) can be evaluated in the
    static frame directly.
    """
    blocks, _ = _coupling_blocks(r, basis)
    pe1 = basis.level_population_diagonal(_E1)
    pe2 = basis.level_population_diagonal(_E2)
    n2 = basis.photon_diagonal(2)
    a_diag = r.delta1 * pe1 + r.delta2 * pe2 + r.delta_two_photon * n2
    H = np.diag(a_diag.astype(complex))
    for B in blocks:
        H = H + B + B.conj().T
    return H


def effective_couplings(r: RamanConfig):
    """Adiabatically eliminated couplings ``beta_i = sqrt(N) Omega_i^* g_i / Delta_i``."""
    if r.delta1 == 0 or r.delta2 == 0:
        raise ValueError("detunings must be nonzero for adiabatic elimination")
    root_n = math.sqrt(r.n_atoms)
    beta1 = root_n * np.conj(complex(r.omega1_rabi)) * complex(r.g1) / r.delta1
    beta2 = root_n * np.conj(complex(r.omega2_rabi)) * complex(r.g2) / r.delta2
    return beta1, beta2


def effective_few_atom_hamiltonian(r: RamanConfig, basis: AtomicBasis) -> np.ndarray:
    """Eq.-(2)-form effective Hamiltonian ``(beta2 a2 + beta1 a1^dag) c^dag + H.c.`` on ``basis``.

    Built from ``params.COUPLING_TERMS`` as products of the basis's cavity
    annihilators and the collective ``c`` of the same few atoms, at the rates
    ``xi = (-i beta1, -i beta2*)``: ``c`` is a sum over atoms, not one shift
    of the composite index, so unlike the fock builds the terms are
    operator products.  No hop passes through a state above the excitation
    cap, and no element joins the two-level (g, h) states to a state with an
    atom in e1 or e2.
    """
    beta1, beta2 = effective_couplings(r)
    ops = (basis.annihilator(1), basis.annihilator(2), basis.collective_flip())
    H = 0
    for (kind, j, k), xi in zip(COUPLING_TERMS, coupling_pair((-1j * beta1, -1j * np.conj(beta2)))):
        # T applies its lowering factor, if any, first, so no product passes above the cap
        T = ops[j].conj().T @ (ops[k].conj().T if kind == "pair" else ops[k])
        H = H + 1j * xi * T - 1j * np.conj(xi) * T.conj().T
    return H


def _evolve(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(-i H t) psi0`` per time as a ``(len(times), dim)`` stack, by one ``eigh`` on ``psi0``'s block.

    The block is the closure of ``psi0``'s support under ``H``'s nonzero
    elements, in ascending order.
    """
    reach, size = psi0 != 0, 0
    while reach.sum() > size:
        size = reach.sum()
        reach |= (H[:, reach] != 0).any(axis=1)
    block = np.flatnonzero(reach)
    w, P = np.linalg.eigh(H[np.ix_(block, block)])
    out = np.zeros((len(times), len(psi0)), dtype=complex)
    out[:, block] = (np.exp(-1j * np.outer(times, w)) * (P.conj().T @ psi0[block])) @ P.T
    out[times == 0.0] = psi0
    return out


def adiabatic_error(
    r: RamanConfig,
    horizon: float,
    samples: int,
    excitation_cap: int = 2,
):
    """Compare full-model and effective-model occupations from ``|g...g>|0,0>``.

    Returns ``(max_occupation_deviation, max_intermediate_population)``: the
    former is the max over samples and over ``(n1, n2, <c^dag c>)`` of the
    absolute full-vs-effective difference, the latter the peak population of
    the intermediate levels e1, e2.

    Both models are built on one :class:`AtomicBasis`, whose operators are
    dense arrays of shifts of its composite indices (15 and 73 states at the
    validate fixtures), and evolve from its state 0, ``|g...g>|0,0>``, by
    :func:`_evolve` (3 to 15 block states at those fixtures, where a
    whole-basis ``eigh`` costs far more under threaded BLAS; norm preserved
    to machine precision): the full model through its
    static-frame generator, whose occupations are those of the interaction
    picture, and the effective model directly.  Both models' samples are
    ``(samples, dim)`` stacks, where the occupations and the e-level
    population are array reductions and ``<c^dag c>`` is ``|c psi|^2``.
    """
    if r.n_atoms > 4:
        raise ValueError("adiabatic validation is desk-scale: n_atoms <= 4")
    if excitation_cap > 3:
        raise ValueError("adiabatic validation is desk-scale: excitation cap <= 3")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not math.isfinite(horizon):
        raise ValueError(f"the horizon must be finite, got {horizon}")
    basis = AtomicBasis(r.n_atoms, excitation_cap)
    times = np.linspace(0.0, horizon, samples)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[basis.ground_index()] = 1.0

    full = _evolve(static_frame_hamiltonian(r, basis), psi0, times)
    eff = _evolve(effective_few_atom_hamiltonian(r, basis), psi0, times)

    c = basis.collective_flip()
    n1, n2 = basis.photon_diagonal(1), basis.photon_diagonal(2)

    def occupations(psi):
        """``(n1, n2, <c^dag c> = |c psi|^2)`` of every row of ``psi``."""
        p = np.abs(psi) ** 2
        return np.column_stack([p @ n1, p @ n2, (np.abs(c @ psi.T) ** 2).sum(axis=0)])

    pe = basis.level_population_diagonal(_E1) + basis.level_population_diagonal(_E2)
    max_dev = float(np.abs(occupations(full) - occupations(eff)).max())
    max_epop = float((np.abs(full) ** 2 @ pe).max())
    return max_dev, max_epop


def bosonization_residual(basis: AtomicBasis, state: np.ndarray) -> float:
    """``|<[c, c^dag]> - 1|`` for the collective operator of the basis.

    The operator identity ``[c, c^dag] = (N_g - N_h)/N`` reduces this to
    level populations; atoms in intermediate levels contribute zero.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (basis.dim,):
        raise ValueError("state dimension does not match basis")
    p = np.abs(state) ** 2
    ng = float(p @ basis.level_population_diagonal(_G))
    nh = float(p @ basis.level_population_diagonal(_H))
    return abs((ng - nh) / basis.n_atoms - 1.0)
