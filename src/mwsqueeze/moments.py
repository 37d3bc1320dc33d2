"""Second-moment propagation of the linear Heisenberg dynamics.

The moment matrix convention is ``V[j, k] = <v_j v_k^dag>`` for the operator
vector ``v = (a1, a1^dag, a2, a2^dag, c, c^dag)``.  Occupations and Wick
terms read off directly: ``n_i = V[2i+1, 2i+1]`` and ``<a_i a_i^dag> =
V[2i, 2i]``, so the canonical commutator reconstructs as
``V[2i, 2i] - V[2i+1, 2i+1] = 1`` along closed trajectories.

Occupations stay exact at arbitrary photon number, which is what makes the
``r -> 1+`` regime (thousands of photons per mode) accessible.  The closed
propagator is an exact quadratic ``I + a M + b M^2`` in the drift matrix with
real scalars ``a(t)``, ``b(t)``, so a closed trajectory is one fixed quadratic
in ``(a, b)`` over six constant matrices, and ``zeta12``, a difference of
O(n^2) Wick terms divided by O(n), is off at ``T_pi`` by no more than a few
``n eps``: the rounding of the Wick subtraction itself.  Any other drift (a
damped one) relaxes toward the fixed point ``X`` of ``M X + X M^dag + D = 0``,
the steady state: ``V(t) = X + E (V0 - X) E^dag`` with ``E = exp(M t)`` from
one batched matrix exponential per stack of samples.

A moment matrix is a plain complex ``(6, 6)`` array.  :func:`moment_blocks`
yields a trajectory as ``(<= _BLOCK, 6, 6)`` stacks of samples for a caller to
reduce as they come, and :func:`evolve_moments` stacks them all.  Each
observable is one function that takes one matrix or any stack ``(..., 6, 6)``
and returns ``(...)`` or ``(..., 3)``.
Closed propagation, observables and ``|z|^2`` (a libm ufunc pair) are per-element
arithmetic, which gives a sample the same bits in every stack; the PSD check
is an LDL^dag factorisation vectorised over the samples, with no eigensolver
unless a sample fails.  From vacuum a closed trajectory is computed and checked
on the upper triangles of its two charge sectors, with the samples last.
"""

from __future__ import annotations

import numpy as np

from .closed_form import zeta12_ratio
from .errors import NumericalError, StabilityError
from .fock import ModeLayout
from .params import COUPLING_TERMS, CONSERVED_CHARGE, DecayRates, coupling_pair

__all__ = [
    "vacuum_moments",
    "drift_matrix",
    "diffusion_matrix",
    "moment_blocks",
    "evolve_moments",
    "steady_state_moments",
    "occupations_from_moments",
    "zeta12_from_moments",
    "commutator_offsets",
    "moments_from_fock_state",
]

# pairing of each component with its dagger in the vector ordering
_SWAP = (1, 0, 3, 2, 5, 4)
# charge sectors of the vector: a_j changes the conserved charge by -q_j, a_j^dag by +q_j;
# one row of component indices per sector
_CHARGE = np.ravel([(-q, q) for q in CONSERVED_CHARGE])
_SECTORS = np.array([np.flatnonzero(_CHARGE == q) for q in sorted(set(_CHARGE.tolist()))])
_WHOLE = np.arange(6)[:, None], np.indices((6, 6)).reshape(2, -1)  # one block: its components, every entry
# samples propagated and validated per stacked call, bounding the temporaries
_BLOCK = 1024


def _positive_definite(A):
    """Whether each Hermitian matrix of a ``(k, k, ...)`` stack, samples last, is positive definite; overwrites ``A``.

    A right-looking LDL^dag, one column at a time and vectorised over the
    stack: a matrix fails at its first pivot that is not positive (or is NaN),
    and from then on divides by 1 so that its leftover arithmetic stays finite.
    """
    ok = np.ones(A.shape[2:], dtype=bool)
    for j in range(len(A)):
        d = A[j, j].real
        ok &= d > 0
        col = A[j + 1:, j] / np.where(ok, d, 1.0)
        A[j + 1:, j + 1:] -= col[:, None] * A[None, j, j + 1:]
    return ok


def _validate_blocks(B, tol, i, j):
    """Finiteness, Hermiticity and PSD within ``tol`` of samples-last ``(k, k, s, n)`` blocks; raises for the first bad sample.

    Hermiticity is checked between each position ``(i, j)`` and ``(j, i)``,
    and is exact by construction elsewhere.  PSD within ``tol`` means
    ``H + tol I`` is positive definite in each of the ``s`` blocks, ``H`` the
    Hermitian part.  Only the sample that fails gets an eigensolver, for the
    minimum eigenvalue in the message.
    """
    diag = np.arange(len(B))
    with np.errstate(all="ignore"):  # a non-finite sample fails below, whatever its arithmetic gives
        herm = np.abs(B[i, j] - B[j, i].conj()).max(axis=(0, 1))
        H = B.copy()
        H[i, j] = (B[i, j] + B[j, i].conj()) / 2.0
        finite = np.isfinite(H).all(axis=(0, 1, 2))
        H[diag, diag] += tol
        psd = _positive_definite(H).all(axis=0)
    bad_herm = herm > tol
    bad = ~finite | bad_herm | ~psd
    if bad.any():
        first = int(np.argmax(bad))
        if not finite[first]:
            raise NumericalError("moment matrix has a non-finite entry")
        if bad_herm[first]:
            raise NumericalError(f"moment matrix Hermiticity violated by {herm[first]:.3e}")
        lo = np.linalg.eigvalsh(np.moveaxis(B[..., first] + B[..., first].conj().swapaxes(0, 1), -1, 0) / 2.0).min()
        raise NumericalError(f"moment matrix not PSD: min eigenvalue {lo:.3e}")


def vacuum_moments() -> np.ndarray:
    """Moment matrix of the three-mode vacuum: ``<a a^dag> = 1``, all else 0."""
    V = np.zeros((6, 6), dtype=complex)
    V[0, 0] = V[2, 2] = V[4, 4] = 1.0
    return V


def _rates(d: DecayRates) -> np.ndarray:
    """Per-mode decay rates ``(kappa1, kappa2, gamma_s)``."""
    return np.array([d.kappa1, d.kappa2, d.gamma_s])


def drift_matrix(c, d: DecayRates | None = None) -> np.ndarray:
    """Drift matrix M with ``d<v>/dt = M <v>``.

    The closed-dynamics entries are the Heisenberg equations of ``COUPLING_TERMS``:
    a pair term gives ``da_j/dt = xi a_k^dag, da_k/dt = xi a_j^dag``, an exchange
    term ``da_j/dt = xi a_k, da_k/dt = -xi* a_j``, and the dagger rows conjugate
    them.  Damping adds ``-kappa_i/2`` (``-gamma_s/2``) on the diagonal.

    ``c`` may be an :class:`EffectiveCouplings`, a raw ``(xi1, xi2)`` pair
    (no magnitude-ordering constraint, for stability studies), or ``None``
    for the uncoupled case.
    """
    M = np.zeros((6, 6), dtype=complex)
    for (kind, j, k), xi in zip(COUPLING_TERMS, coupling_pair(c)):
        if kind == "pair":
            entries = ((2 * j, 2 * k + 1, xi), (2 * k, 2 * j + 1, xi))
        else:
            entries = ((2 * j, 2 * k, xi), (2 * k, 2 * j, -np.conj(xi)))
        for row, col, rate in entries:
            M[row, col] = rate
            M[_SWAP[row], _SWAP[col]] = np.conj(rate)
    M[np.diag_indices(6)] = -np.repeat(_rates(d or DecayRates()), 2) / 2
    return M


def diffusion_matrix(d: DecayRates) -> np.ndarray:
    """Vacuum-input diffusion matrix D of ``dV/dt = M V + V M^dag + D``."""
    D = np.zeros((6, 6), dtype=complex)
    D[::2, ::2] = np.diag(_rates(d))
    return D


def _require_stable(M) -> float:
    """Stability abscissa of ``M``; ``StabilityError`` naming the rightmost eigenvalue unless it is < 0."""
    ev = np.linalg.eigvals(M)
    worst = ev[np.argmax(ev.real)]
    abscissa = float(worst.real)
    if abscissa >= 0:
        raise StabilityError(
            f"drift matrix unstable: eigenvalue {worst:.6g} has real part {abscissa:.3e} >= 0",
            max_real_eigenvalue=abscissa,
        )
    return abscissa


def _putzer(M, V0):
    """:func:`_relaxation`'s triple for ``E V0 E^dag``, ``E = exp(M t)``, when ``M^3 = -theta^2 M``; else None.

    By Cayley-Hamilton (Putzer), ``E = I + a M + b M^2`` with the real scalars
    ``a = sin(theta t)/theta`` and ``b = 2 sin^2(theta t/2)/theta^2``,
    ``theta^2 = -tr(M^2)/4``, also for ``theta^2 <= 0``; no eigenvectors, so
    nothing degrades as the eigenvalues 0 and ``+-i theta`` merge for
    ``r -> 1+``.  Hence ``E V0 E^dag = C0 + a C1 + b C2 + a^2 C3 + ab C4 + b^2 C5``
    over six matrices fixed once, and each entry is real multiply-adds in that
    order, the same bits in any stack.  When no entry of ``M`` or ``V0`` joins
    the two charge sectors and every ``C`` is Hermitian (as from vacuum), the
    blocks are the sectors and only their upper triangles are computed, the
    lower ones by conjugation; else the whole matrix, entry by entry.
    """
    M2 = M @ M
    theta2 = -M2.trace().real / 4.0
    if np.abs(M2 @ M + theta2 * M).max() > 1e-12 * np.abs(M).max() ** 3:
        return None
    w = np.sqrt(complex(theta2))  # imaginary for theta^2 < 0, where sin(i x)/i = sinh(x)
    Md, M2d = M.conj().T, M2.conj().T
    C = np.array([
        V0,
        M @ V0 + V0 @ Md,
        M2 @ V0 + V0 @ M2d,
        M @ V0 @ Md,
        M @ V0 @ M2d + M2 @ V0 @ Md,
        M2 @ V0 @ M2d,
    ])
    cross = _CHARGE[:, None] != _CHARGE
    split = not (M[cross].any() or V0[cross].any()) and np.array_equal(C, C.conj().swapaxes(1, 2))
    sectors, (i, j) = (_SECTORS.T, np.triu_indices(3)) if split else _WHOLE
    mirrored = (i < j) & split  # entries whose conjugate is also at (j, i)
    F = C[:, sectors[i], sectors[j]].reshape(6, -1)
    F = np.concatenate([F.real, F.imag], axis=1)[:, :, None]  # (6, 2 entries s, 1)
    k, s = sectors.shape
    mi, mj = i[mirrored], j[mirrored]

    def propagate(t):
        a = np.real(np.sin(w * t) / w) if w else t
        b = np.real(2.0 * (np.sin(w * t / 2.0) / w) ** 2) if w else t * t / 2.0
        X = F[0] + a * F[1]
        for f, c in zip(F[2:], (b, a * a, a * b, b * b)):
            X += c * f
        re, im = X.reshape(2, len(i), s, len(t))
        B = np.empty((k, k, s, len(t)), dtype=complex)
        B.real[i, j], B.imag[i, j] = re, im
        B.real[mj, mi], B.imag[mj, mi] = re[mirrored], -im[mirrored] + 0.0  # + 0.0: a zero stays +0
        return B

    return sectors, (i[~mirrored], j[~mirrored]), propagate


def _relaxation(M, D, V0):
    """``(components, checked, propagate)`` for ``X + E (V0 - X) E^dag``, ``E = exp(M t)``, the whole matrix one block.

    ``propagate`` maps a time array to the ``(k, k, s, n)`` samples-last blocks
    on the ``(k, s)`` components, whose ``checked`` entries ``(i, j)`` get a
    Hermiticity check.  ``X`` is the fixed point ``M X + X M^dag + D = 0``: 0
    without diffusion, else :func:`steady_state_moments` on the components that
    ``M`` or ``D`` touch (so it needs that block strictly stable) and 0 on the
    rest, where ``E`` is the identity.  ``E`` is one batched exponential.
    """
    import scipy.linalg

    X = np.zeros_like(M)
    if D.any():
        touched = (M != 0) | (D != 0)
        idx = np.flatnonzero(touched.any(0) | touched.any(1))
        active = np.ix_(idx, idx)
        X[active] = steady_state_moments(M[active], D[active])
    offset = V0 - X

    def propagate(t):
        E = scipy.linalg.expm(M * t[:, None, None])
        return np.moveaxis(X + E @ offset @ E.conj().swapaxes(1, 2), 0, -1)[:, :, None]

    return *_WHOLE, propagate


def moment_blocks(M: np.ndarray, V0: np.ndarray, times, diffusion=None):
    """Propagate ``dV/dt = M V + V M^dag + D`` from ``V0`` at ``t = 0``, yielding ``(lo, V)`` per ``_BLOCK`` samples.

    ``V`` holds the ``(<= _BLOCK, 6, 6)`` moments of samples ``lo, lo + 1, ...``
    and is one buffer reused by every block: consume it before advancing.
    The closed case (no diffusion, and ``M^3 = -theta^2 M`` as for every
    undamped drift) is the exact quadratic of :func:`_putzer`; any other drift
    relaxes toward its fixed point (:func:`_relaxation`), and a nonzero ``D``
    whose touched block is not strictly stable raises ``StabilityError``.
    Each block is validated (:func:`_validate_blocks`: finite, Hermitian and
    PSD within ``1e-8 max(1, max|V|)``); ``V`` is 0 outside every block.
    """
    M = np.asarray(M, dtype=complex)
    V0 = np.asarray(V0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("sample times must not be negative")

    D = np.zeros_like(M) if diffusion is None else np.asarray(diffusion, dtype=complex)
    closed = None if D.any() else _putzer(M, V0)
    sectors, checked, propagate = closed or _relaxation(M, D, V0)
    buf = np.zeros((min(len(times), _BLOCK), 6, 6), dtype=complex)
    for lo in range(0, len(times), _BLOCK):
        B = propagate(times[lo:lo + _BLOCK])
        _validate_blocks(B, 1e-8 * np.maximum(1.0, np.abs(B).max(axis=(0, 1, 2))), *checked)
        V = buf[:B.shape[-1]]
        V[:, sectors[:, None], sectors[None]] = np.moveaxis(B, -1, 0)
        yield lo, V


def evolve_moments(M: np.ndarray, V0: np.ndarray, times, diffusion=None) -> np.ndarray:
    """The ``(n, 6, 6)`` moments at each sample time: the blocks of :func:`moment_blocks`, stacked."""
    out = np.zeros((len(times), 6, 6), dtype=complex)
    for lo, V in moment_blocks(M, V0, times, diffusion):
        out[lo:lo + len(V)] = V
    return out


def steady_state_moments(M: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Solve ``M V + V M^dag + D = 0`` for the steady-state moment matrix."""
    M = np.asarray(M, dtype=complex)
    _require_stable(M)
    import scipy.linalg

    return scipy.linalg.solve_sylvester(M, M.conj().T, -np.asarray(diffusion, dtype=complex))


def occupations_from_moments(V) -> np.ndarray:
    """Normally ordered occupations ``(n1, n2, n3)`` of a moment matrix or stack: ``(..., 6, 6) -> (..., 3)``."""
    n = np.asarray(V)[..., [1, 3, 5], [1, 3, 5]].real
    bad = n < -1e-10
    if bad.any():
        raise NumericalError(f"negative occupation {n[bad][0]:.3e} from moment matrix")
    return n


def _abs2(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` per element, rounded as libm ``hypot`` then ``pow``, the bits of ``math.pow(abs(x), 2.0)``.

    ``np.hypot`` and ``np.float_power`` are ufuncs over those libm calls.
    ``np.abs`` and ``np.power`` (SIMD paths), ``h * h`` and ``re^2 + im^2``
    all differ from them in the last bit for one value in 1 200 or more, which
    would make ``zeta12`` depend on whether it was computed alone or in a stack.
    """
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def zeta12_from_moments(V) -> np.ndarray:
    """Relative number squeezing of a zero-mean Gaussian moment matrix or stack: ``(..., 6, 6) -> (...)``.

    The fourth moments in ``Var(n1 - n2)`` factorize by Wick's theorem into::

        Var(n1) = n1 (n1 + 1) + |<a1 a1>|^2
        Var(n2) = n2 (n2 + 1) + |<a2 a2>|^2
        Cov(n1, n2) = |<a1 a2>|^2 + |<a1^dag a2>|^2

    so that ``zeta12 = (Var(n1) + Var(n2) - 2 Cov(n1, n2)) / (n1 + n2)``.
    This expansion is unit-tested against a brute-force Fock computation.
    The ratio, with its vacuum rule, is :func:`~mwsqueeze.closed_form.zeta12_ratio`.
    """
    V = np.asarray(V)
    n1 = V[..., 1, 1].real
    n2 = V[..., 3, 3].real
    m1 = _abs2(V[..., 0, 1])  # <a1 a1>
    m2 = _abs2(V[..., 2, 3])  # <a2 a2>
    c12 = _abs2(V[..., 0, 3])  # <a1 a2>
    d12 = _abs2(V[..., 1, 3])  # <a1^dag a2>
    num = n1 * (n1 + 1.0) + n2 * (n2 + 1.0) + m1 + m2 - 2.0 * c12 - 2.0 * d12
    return zeta12_ratio(num, n1 + n2)  # a numpy scalar for one matrix


def commutator_offsets(V) -> np.ndarray:
    """``<[a_i, a_i^dag]>`` per mode of a moment matrix or stack: ``(..., 6, 6) -> (..., 3)``.

    Equals 1 for canonical closed evolution.
    """
    V = np.asarray(V)
    return (V[..., [0, 2, 4], [0, 2, 4]] - V[..., [1, 3, 5], [1, 3, 5]]).real


def moments_from_fock_state(psi: np.ndarray, layout: ModeLayout) -> np.ndarray:
    """Extract the 6x6 moment matrix from a three-mode Fock-space state vector.

    Brute-force expectation values of all ``v_j v_k^dag`` pairs, each ladder
    operator applied to ``psi`` by :func:`~mwsqueeze.fock.mode_annihilator`;
    this is the anti-hallucination oracle used to validate the Wick expansion.
    """
    if layout.n_modes != 3:
        raise ValueError("moment extraction expects a three-mode layout")
    from .fock import mode_annihilator

    # <v_j v_k^dag> = (v_j^dag psi)^dag (v_k^dag psi), and v_j^dag = v_{swap(j)}:
    # a^dag of mode j // 2 for even j, a for odd
    applied = [mode_annihilator(layout, j // 2, psi, dagger=j % 2 == 0) for j in range(6)]
    V = np.zeros((6, 6), dtype=complex)
    for j in range(6):
        for k in range(6):
            V[j, k] = np.vdot(applied[j], applied[k])
    return V
