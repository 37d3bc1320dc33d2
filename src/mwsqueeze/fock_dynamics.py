"""Exact truncated-Fock-space evolution under the effective Hamiltonian.

The Hamiltonian ``H = i xi1 a1^dag c^dag - i xi1* a1 c + i xi2 a2^dag c -
i xi2* a2 c^dag`` is built from ``params.COUPLING_TERMS`` by index
arithmetic on the composite indices of a (cavity1, cavity2, spin) layout:
each term moves a state by a fixed step, found by its composite index, with
the ladder factors ``sqrt(n)`` of its occupations (:func:`_box_entries`).
That one builder reads a :class:`~mwsqueeze.fock.FockOperator` (the
effective Hamiltonian, validate's corrupt hook with its own term table, and
the degenerate variant, which maps both cavities to its one) and gives its
elements on the whole box, a reached block or the charge lattice.
Starting from vacuum, pair creation and exchange only ever reach a small
invariant block of the truncated space (the ``n2 - n1 + n3 = 0`` lattice,
or one ``n_a + n_c`` parity sector for the degenerate variant).  Every term
of the table moves the spin exactly once and adds no diagonal, so on any
block ``H = [[0, B], [B^dag, 0]]`` between even and odd spin number, and one
thin SVD of the even-to-odd coupling ``B`` gives ``exp(-i H t)`` for all
samples as one stacked product (:func:`_half_block_propagate`).

There are two entries.  :func:`evolve_vacuum` is the CLI's fock route: it
enumerates the charge lattice ``(m + n, n, m)`` inside the truncation box
(:func:`charge_lattice`, whose size :func:`charge_lattice_size` gives in
closed form before anything is allocated) and fills ``B`` from the
builder's entries on that lattice, so no composite-space operator or vector
is formed.  :func:`evolve_state` takes a generator as its description, a
:class:`~mwsqueeze.fock.FockOperator` (the validation suite's builds, the
corrupt hook, the degenerate variant), builds its entries over the whole
box only to find the basis states they join to the initial state's support
(:func:`_reachable`), and hands that block to the same propagator.  Nothing
leaves the block, so the restriction is exact whether or not ``H`` conserves
a charge; a term table with an element that does not move the spin is
refused.  Both entries share one propagator and one observation tail.

A state is a plain complex vector of length ``layout.dim``, a trajectory
its block and amplitude stack; a Hamiltonian travels as its term table with
its rates and layout, Hermitian by construction.

State comparisons across routes are gauged by the phase of the
largest-magnitude amplitude, since the closed-form amplitude table fixes
phases only up to convention (its alphas are real non-negative); exact
phase-faithful agreement therefore holds for real non-negative couplings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .errors import NumericalError, TruncationWarning
from .fock import FockOperator, ModeLayout, at_top_level, vacuum_state
from .params import EffectiveCouplings, coupling_pair

__all__ = [
    "build_effective_hamiltonian",
    "charge_lattice",
    "charge_lattice_size",
    "evolve_vacuum",
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


def _box_entries(H: FockOperator, states: np.ndarray):
    """Rows, columns and values of ``H = sum i xi T - i xi* T^dag`` on ``states``, by index arithmetic.

    ``states`` are ascending composite indices of ``H.layout`` closed under
    its terms, and rows and columns are positions in it.  A term ``(kind, j,
    k)`` of ``H.terms`` (see ``COUPLING_TERMS``) acts on the layout modes
    ``H.modes[j]`` and ``H.modes[k]``: ``T`` moves a state by ``e_j + e_k``
    (pair) or ``e_j - e_k`` (exchange), a move that leaves the box has no
    element, and one that lands inside the box but outside ``states``
    raises.  A term of rate 0 adds no entries, so no element is zero.  A
    ladder step between ``n`` and ``n'`` carries ``sqrt(max(n, n'))``, and an
    element is formed as a sum of ladder-operator products forms it, ``0 + (i
    xi)(sqrt a sqrt b)`` or ``0 - (i xi*)(sqrt a sqrt b)``: the same bits.
    """
    dims = H.layout.dims
    occ = np.unravel_index(states, dims)
    strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for (kind, j, k), xi in zip(H.terms, coupling_pair(H.c)):
        j, k = H.modes[j], H.modes[k]
        if j == k:
            raise ValueError(f"coupling term {(kind, j, k)} acts twice on one mode")
        if xi == 0:
            continue
        step = [0] * len(dims)
        step[j] += 1
        step[k] += 1 if kind == "pair" else -1
        to = [o + s for o, s in zip(occ, step)]
        src = np.flatnonzero(np.logical_and.reduce([(t >= 0) & (t < d) for t, d in zip(to, dims)]))
        target = states[src] + sum(s * st for s, st in zip(step, strides))
        dst = np.searchsorted(states, target)
        if np.any(states[np.minimum(dst, len(states) - 1)] != target):
            raise ValueError(f"coupling term {(kind, j, k)} leaves the given states")
        f = np.sqrt(np.maximum(occ[j], to[j])[src]) * np.sqrt(np.maximum(occ[k], to[k])[src])
        rows += [dst, src]
        cols += [src, dst]
        vals += [0 + 1j * xi * f, 0 - 1j * np.conj(xi) * f]
    return tuple(np.concatenate(a) for a in (rows, cols, vals))


def build_effective_hamiltonian(c, layout: ModeLayout) -> FockOperator:
    """Hermitian three-oscillator Hamiltonian on the truncated space, as its description.

    The :class:`~mwsqueeze.fock.FockOperator` of ``params.COUPLING_TERMS``
    with the rates of ``c`` on ``layout``.  Its entries, built where it is
    evolved, hold ``<1,0,1| H |0,0,0> = i xi1`` (pair creation in cavity 1
    and the spin) and ``[H, a2^dag a2 - a1^dag a1 + c^dag c] = 0`` on the
    whole truncated space: every nonzero matrix element conserves that
    combination, and boundary elements are simply absent.  ``c`` may be an
    :class:`EffectiveCouplings` or a raw ``(xi1, xi2)`` pair.
    """
    if layout.n_modes != 3:
        raise ValueError("effective Hamiltonian needs a three-mode layout")
    return FockOperator(c, layout)


@dataclass
class Trajectory:
    """Sampled observables of a closed evolution, one array entry (or row) per sample.

    ``block`` holds the reached basis states' ascending composite indices, ``states`` their ``(n, |block|)`` amplitudes.
    """

    times: np.ndarray
    block: np.ndarray
    states: np.ndarray
    occupations: np.ndarray  # (n, n_modes)
    zeta12: np.ndarray  # nan unless the layout has three modes
    leakage: np.ndarray  # total population with any mode at its top level
    norms: np.ndarray


def _reachable(rows, cols, psi: np.ndarray) -> np.ndarray:
    """The ascending basis states that the entries at ``(rows, cols)`` join, in any number of steps, to ``psi``'s support.

    Each step is one pass over every entry, in :func:`evolve_state` the
    whole box's, so the cost follows the box and the closure's depth, not
    the block.
    """
    seen = psi != 0
    while True:
        count = np.count_nonzero(seen)
        seen[cols[seen[rows]]] = True
        if np.count_nonzero(seen) == count:
            return np.flatnonzero(seen)


def _half_block_propagate(H: FockOperator, block: np.ndarray, psi0: np.ndarray, times: np.ndarray):
    """``exp(-i H t) psi0`` at every time, with ``H``'s :func:`_box_entries` on ``block``.

    ``block`` holds ascending composite indices of ``H.layout`` closed under
    its terms, and ``psi0`` its amplitudes.  Every coupling term moves the
    spin, the last mode, once, so ``H = [[0, B], [B^dag, 0]]`` between even
    and odd spin number (else ``ValueError``).  One thin SVD of the dense ``B
    = U S V^dag`` gives ``even(t) = psi_e + U ((cos St - 1) U^dag psi_e - i
    sin St V^dag psi_o)`` and the mirrored odd rows: the ``(len(times),
    |block|)`` amplitude stack, ``psi0`` at ``t = 0``.
    """
    rows, cols, vals = _box_entries(H, block)
    odd = block % H.layout.dims[-1] % 2 == 1
    if np.any(odd[rows] == odd[cols]):
        raise ValueError("an element of the generator does not move the spin: not bipartite in spin parity")
    rank = np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1
    keep = ~odd[rows]
    B = np.zeros((np.count_nonzero(~odd), np.count_nonzero(odd)), dtype=complex)
    B[rank[rows[keep]], rank[cols[keep]]] = vals[keep]
    U, s, Vh = np.linalg.svd(B, full_matrices=False)
    psi_e, psi_o = psi0[~odd], psi0[odd]
    ce, co = U.conj().T @ psi_e, Vh @ psi_o
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase gives NaN, refused by _observe
        ts = np.outer(times, s)
        cos1, msin = np.cos(ts) - 1.0, -1j * np.sin(ts)
    amps = np.empty((len(times), len(psi0)), dtype=complex)
    amps[:, ~odd] = psi_e + (cos1 * ce + msin * co) @ U.T
    amps[:, odd] = psi_o + (cos1 * co + msin * ce) @ Vh.conj()
    amps[times == 0.0] = psi0
    return amps


def charge_lattice_size(dims) -> int:
    """Number of charge-lattice states ``(m + n, n, m)`` in a ``(d1, d2, d3)`` box.

    ``sum over m < min(d3, d1) of min(d2, d1 - m)`` in closed form over
    Python ints: rows ``m <= d1 - d2`` hold all ``d2`` values of ``n`` and
    the rest ``d1 - m``.  Nothing is allocated, so a truncation of any size
    can be checked before it is built.
    """
    d1, d2, d3 = (int(d) for d in dims)
    rows = min(d3, d1)
    full = max(0, min(rows, d1 - d2 + 1))
    return full * d2 + (rows - full) * d1 - (rows - 1 + full) * (rows - full) // 2


def charge_lattice(layout: ModeLayout):
    """The ``n2 - n1 + n3 = 0`` states ``(m + n, n, m)`` of a three-mode layout.

    Returns their composite indices ``((m + n) d2 + n) d3 + m`` in ascending
    order, the :class:`~mwsqueeze.fock.ModeLayout` convention, and each
    state's ``m`` and ``n``.  These are the basis states every coupling
    Hamiltonian reaches from vacuum; the arrays are of the lattice's size,
    not the layout's.
    """
    if layout.n_modes != 3:
        raise ValueError("the charge lattice needs a three-mode layout")
    d1, d2, d3 = layout.dims
    m, n = np.meshgrid(np.arange(min(d3, d1), dtype=np.int64),
                       np.arange(min(d2, d1), dtype=np.int64), indexing="ij")
    inside = m + n < d1
    m, n = m[inside], n[inside]
    index = ((m + n) * d2 + n) * d3 + m
    order = np.argsort(index)
    return index[order], m[order], n[order]


def _zeta12(p: np.ndarray, occ) -> np.ndarray:
    """``Var(n1 - n2) / (n1 + n2)`` from basis populations ``p`` and their occupations.

    ``p`` holds one sample per row (or is one sample); the ratio, with its
    vacuum rule, is :func:`~mwsqueeze.closed_form.zeta12_ratio`.
    """
    diff = (occ[0] - occ[1]).astype(float)
    mean = p @ diff
    return closed_form.zeta12_ratio(p @ diff**2 - mean**2, p @ occ[0] + p @ occ[1])


def _sample_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be a 1-D grid of finite values")
    if not times.size or times[0] != 0.0:
        raise ValueError("sample times must start at 0")
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("sample times must be strictly ascending")
    return times


def _observe(block: np.ndarray, amps: np.ndarray, dims, times: np.ndarray, norm0: float) -> Trajectory:
    """The trajectory of the amplitude stack ``amps`` on ``block``, as array reductions over its populations.

    Each mode's occupation of the block's states, and whether any mode is at
    its top level, are read off their composite indices in the box ``dims``;
    ``norm0`` is the initial state's norm.  Raises :class:`NumericalError`
    when the norm drifts by more than 1e-8 (or NaN) between consecutive samples, and warns
    (:class:`TruncationWarning`) when the top-level population exceeds 1e-6.
    """
    occ = np.unravel_index(block, dims)
    p = np.abs(amps) ** 2
    norms = np.sqrt(p.sum(axis=1))
    drift = np.abs(np.diff(norms, prepend=norm0))
    first = np.argmax(~(drift <= _NORM_DRIFT_PER_STEP))
    if not drift[first] <= _NORM_DRIFT_PER_STEP:
        raise NumericalError(
            f"norm drifted by {drift[first]:.3e} over one step (limit {_NORM_DRIFT_PER_STEP:g})"
        )
    leakage = p[:, at_top_level(occ, dims)].sum(axis=1)
    traj = Trajectory(
        times,
        block,
        amps,
        np.column_stack([p @ o for o in occ]),
        _zeta12(p, occ) if len(occ) == 3 else np.full(len(times), np.nan),
        leakage,
        norms,
    )
    over = np.flatnonzero(leakage > _LEAKAGE_THRESHOLD)
    if over.size:
        warnings.warn(
            f"top-level population {leakage[over[0]]:.3e} exceeded {_LEAKAGE_THRESHOLD:g} "
            f"at t={times[over[0]]:.6g}; truncation may bias observables",
            TruncationWarning,
            stacklevel=3,
        )
    return traj


def evolve_state(H: FockOperator, psi0: np.ndarray, times) -> Trajectory:
    """Evolve ``|psi(t)> = exp(-i H t) |psi0>`` and record diagnostics per sample.

    Every sample comes from one stacked product: ``H``'s entries over the
    whole box (:func:`_box_entries`) only find the basis states they join to
    the support of ``psi0`` (:func:`_reachable`), and ``H`` on that block is
    factorised once, by one thin SVD of its half-block ``B`` between even
    and odd spin number (:func:`_half_block_propagate`); sample 0 is
    ``psi0`` itself.
    Occupations, zeta12, leakage and norms are array reductions over the
    block's populations.  From vacuum under the effective Hamiltonian,
    :func:`evolve_vacuum` gives the same trajectory without building ``H``.

    Parameters
    ----------
    H : FockOperator
        Generator, as its rates, term table and mode map on the layout it
        acts on; Hermitian by construction.
    psi0 : ndarray
        Initial amplitudes, a vector of length ``H.layout.dim``.
    times : sequence of float
        A 1-D grid of finite values, sorted ascending, starting at 0.

    Raises
    ------
    ValueError
        If ``psi0`` is not a vector of length ``H.layout.dim``, the times
        are not a finite 1-D grid that starts at 0 and ascends strictly, a
        term of ``H`` acts twice on one layout mode, or an element of ``H``
        on the block joins two states of one spin parity (a term of nonzero
        rate that does not move the spin, say).
    NumericalError
        If the norm drifts by more than 1e-8, or by NaN, between consecutive samples.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.layout.dim,):
        raise ValueError(f"state shape {psi0.shape} does not match layout dimension {H.layout.dim}")
    times = _sample_times(times)
    rows, cols, _ = _box_entries(H, np.arange(H.layout.dim))
    block = _reachable(rows, cols, psi0)
    amps = _half_block_propagate(H, block, psi0[block], times)
    return _observe(block, amps, H.layout.dims, times, np.linalg.norm(psi0))


def evolve_vacuum(c, layout: ModeLayout, times) -> Trajectory:
    """:func:`evolve_state` of vacuum under ``build_effective_hamiltonian(c, layout)``, on the charge lattice alone.

    The block is the lattice of :func:`charge_lattice`, handed to the
    propagator with ``FockOperator(c, layout)``: propagation and observation
    are :func:`evolve_state`'s, and the elements are built on the lattice
    alone, so no composite-space operator or vector is formed and the cost
    follows :func:`charge_lattice_size`, not ``layout.dim``.

    With both rates nonzero the lattice is the block :func:`_reachable`
    finds, with the same ``B``, so the trajectory holds the same bits as
    :func:`evolve_state`'s.  A rate of 0 drops its links from that closure
    but not from the lattice, which then also holds chains of states that
    vacuum never reaches.  The SVD mixes those decoupled chains, so they
    carry amplitudes at rounding level (below 1e-15 at ``(12, 10, 6)``) and
    the observables agree with :func:`evolve_state`'s to a few 1e-15 rather
    than bit for bit.  With both rates 0, ``B`` is zero and every sample is
    exactly vacuum.

    Raises
    ------
    ValueError
        If the layout does not have three modes, or the times are not a
        finite 1-D grid that starts at 0 and ascends strictly.
    NumericalError
        If the norm drifts by more than 1e-8, or by NaN, between consecutive samples.
    """
    block, _, _ = charge_lattice(layout)
    times = _sample_times(times)
    psi0 = np.zeros(len(block), dtype=complex)
    psi0[0] = 1.0  # vacuum, composite index 0, is the lattice's first state
    amps = _half_block_propagate(FockOperator(c, layout), block, psi0, times)
    return _observe(block, amps, layout.dims, times, 1.0)


def relative_number_squeezing(psi: np.ndarray, layout: ModeLayout) -> float:
    """``Var(n1 - n2) / (n1 + n2)`` for a three-mode state.

    Number operators are diagonal in the Fock basis, so this is a direct
    fourth-moment computation with no Gaussian assumption; the ratio, with
    its vacuum rule, is :func:`~mwsqueeze.closed_form.zeta12_ratio`.
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
    index, m, n = charge_lattice(layout)
    psi = np.zeros(layout.dim, dtype=complex)
    # the spin-vacuum row of the lattice is |n, n, 0> for n <= n_max
    psi[index[m == 0]] = amps[n[m == 0]]
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
    is truncated as the dynamical route is, and renormalized: its vacuum
    entry ``1 / sqrt(1 + n1) > 0`` is on every layout.
    """
    if layout.n_modes != 3:
        raise ValueError("analytic state expects a three-mode layout")
    _, d2, d3 = layout.dims
    table = closed_form.evolved_amplitudes(c, t, m_max=d3 - 1, n_max=d2 - 1, tail_tol=tail_tol)
    index, m, n = charge_lattice(layout)
    psi = np.zeros(layout.dim, dtype=complex)
    psi[index] = table[m, n]
    return psi / np.linalg.norm(psi)


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
    traj = evolve_state(FockOperator(c, layout2, modes=(0, 0, 1)), vacuum_state(layout2), times)
    # every state is zero off the block, so <a a> sums over the block states
    # whose a^2 image, 2 d_spin indices down, is in the block too (with one
    # rate 0 the block is a chain that misses some of them)
    block, amps = traj.block, traj.states
    shift = 2 * layout2.dims[1]
    n = block // layout2.dims[1]
    src = np.flatnonzero(n >= 2)
    dst = np.searchsorted(block, block[src] - shift)
    hit = block[dst] == block[src] - shift
    src, dst = src[hit], dst[hit]
    aa = (amps[:, dst].conj() * amps[:, src]) @ np.sqrt(n[src] * (n[src] - 1.0))
    return 0.5 + traj.occupations[:, 0] - np.abs(aa)
