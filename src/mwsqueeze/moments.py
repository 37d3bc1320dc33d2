"""Second-moment propagation of the linear Heisenberg dynamics.

The moment matrix convention is ``V[j, k] = <v_j v_k^dag>`` for the operator
vector ``v = (a1, a1^dag, a2, a2^dag, c, c^dag)``.  Occupations and Wick
terms read off directly: ``n_i = V[2i+1, 2i+1]`` and ``<a_i a_i^dag> =
V[2i, 2i]``, so the canonical commutator reconstructs as
``V[2i, 2i] - V[2i+1, 2i+1] = 1`` along closed trajectories.

Occupations stay exact at arbitrary photon number, which is what makes the
``r -> 1+`` regime (thousands of photons per mode) accessible.  ``zeta12``
is a difference of O(n^2) Wick terms divided by O(n), so its absolute error
grows with the photon number (the README states the envelope).

Observables are computed on whole ``(n, 6, 6)`` stacks; the per-matrix
functions are the one-sample case of the stacked ones.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StabilityError
from .fock import FockState
from .params import COUPLING_TERMS, DecayRates, coupling_pair

__all__ = [
    "MomentMatrix",
    "MomentTrajectory",
    "vacuum_moments",
    "drift_matrix",
    "diffusion_matrix",
    "rightmost_eigenvalue",
    "evolve_moments",
    "steady_state_moments",
    "occupations_from_moments",
    "occupations_from_moment_stack",
    "zeta12_from_moments",
    "zeta12_from_moment_stack",
    "commutator_offsets",
    "moments_from_fock_state",
]

# pairing of each component with its dagger in the vector ordering
_SWAP = (1, 0, 3, 2, 5, 4)
# samples propagated and validated per stacked call, bounding the temporaries
_BLOCK = 1024


@dataclass(frozen=True)
class MomentMatrix:
    """A 6x6 second-moment matrix ``<v v^dag>`` tagged with its time."""

    V: np.ndarray
    t: float

    def __post_init__(self):
        V = np.asarray(self.V, dtype=complex)
        if V.shape != (6, 6):
            raise ValueError("moment matrix must be 6x6")
        object.__setattr__(self, "V", V)

    def validate(self, tol: float = 1e-10):
        """Check Hermiticity and positive semidefiniteness within ``tol``."""
        _validate_stack(self.V[None], tol)


@dataclass(frozen=True)
class MomentTrajectory(Sequence):
    """Moment matrices at a grid of times: the ``(n, 6, 6)`` stack ``V`` and the times ``t``.

    An index gives the :class:`MomentMatrix` of one sample, a view into
    ``V``; a slice gives a shorter trajectory.
    """

    V: np.ndarray
    t: np.ndarray

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MomentTrajectory(self.V[i], self.t[i])
        return MomentMatrix(self.V[i], float(self.t[i]))


def _validate_stack(V, tol):
    """Hermiticity and PSD of a ``(n, 6, 6)`` stack within ``tol``; raises for the first bad sample."""
    VH = V.conj().swapaxes(1, 2)
    herm = np.abs(V - VH).max(axis=(1, 2))
    eigs = np.linalg.eigvalsh((V + VH) / 2.0)  # ascending
    bad_herm = herm > tol
    bad = bad_herm | (eigs[:, 0] < -tol * np.maximum(1.0, eigs[:, -1]))
    if bad.any():
        i = int(np.argmax(bad))
        if bad_herm[i]:
            raise NumericalError(f"moment matrix Hermiticity violated by {herm[i]:.3e}")
        raise NumericalError(f"moment matrix not PSD: min eigenvalue {eigs[i, 0]:.3e}")


def vacuum_moments() -> MomentMatrix:
    """Moment matrix of the three-mode vacuum: ``<a a^dag> = 1``, all else 0."""
    V = np.zeros((6, 6), dtype=complex)
    V[0, 0] = V[2, 2] = V[4, 4] = 1.0
    return MomentMatrix(V, 0.0)


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


def rightmost_eigenvalue(M) -> complex:
    """Eigenvalue of ``M`` with the largest real part (the stability abscissa)."""
    ev = np.linalg.eigvals(M)
    return ev[np.argmax(ev.real)]


def _propagator(M, cond_limit=1e8):
    """Map from a time array to the stack of exp(M t), via eigendecomposition when well conditioned."""
    w, P = np.linalg.eig(M)
    if np.linalg.cond(P) < cond_limit:
        Pinv = np.linalg.inv(P)
        return lambda t: (P * np.exp(w * t[:, None])[:, None, :]) @ Pinv
    import scipy.linalg

    return lambda t: np.stack([scipy.linalg.expm(M * dt) for dt in t])


def evolve_moments(M: np.ndarray, V0: MomentMatrix, times, diffusion=None) -> MomentTrajectory:
    """Propagate ``dV/dt = M V + V M^dag + D`` from ``V0`` at each sample time.

    The closed case (``diffusion`` None or zero) propagates exactly as
    ``V(t) = e^{Mt} V0 e^{M^dag t}``.  With diffusion, the affine solution
    ``V(t) = Vss + e^{Mt}(V0 - Vss)e^{M^dag t}`` is used when the drift is
    strictly stable; otherwise an adaptive RK integration at relative
    tolerance 1e-10 is the fallback.

    Propagators come from the eigendecomposition of ``M`` when its
    eigenvector matrix is well conditioned (< 1e8), matching the oscillatory
    closed case exactly.  Samples are propagated and validated as stacks of
    ``_BLOCK`` into one ``(n, 6, 6)`` array, returned as a :class:`MomentTrajectory`.
    """
    M = np.asarray(M, dtype=complex)
    t0 = V0.t
    rel = np.asarray(times, dtype=float) - t0
    if np.any(rel < 0):
        raise ValueError("sample times must not precede the initial time")

    damped = diffusion is not None and np.any(np.asarray(diffusion) != 0)
    D = np.asarray(diffusion, dtype=complex) if damped else None
    out = np.empty((len(rel), 6, 6), dtype=complex)
    if damped and rightmost_eigenvalue(M).real >= 0:
        out[:] = _evolve_moments_ivp(M, V0, rel.tolist(), D)
    else:
        Vss = 0.0
        if damped:
            import scipy.linalg

            Vss = scipy.linalg.solve_sylvester(M, M.conj().T, -D)
        X = V0.V - Vss
        propagate = _propagator(M)
        for lo in range(0, len(rel), _BLOCK):
            E = propagate(rel[lo:lo + _BLOCK])
            out[lo:lo + _BLOCK] = Vss + E @ X @ E.conj().swapaxes(1, 2)
    for lo in range(0, len(rel), _BLOCK):
        block = out[lo:lo + _BLOCK]
        _validate_stack(block, 1e-8 * np.maximum(1.0, np.abs(block).max(axis=(1, 2))))
    return MomentTrajectory(out, t0 + rel)


def _evolve_moments_ivp(M, V0, rel, D):
    from scipy.integrate import solve_ivp

    def rhs(_, y):
        V = y.reshape(6, 6)
        dV = M @ V + V @ M.conj().T + D
        return dV.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, max(rel) if rel else 0.0),
        V0.V.ravel().astype(complex),
        t_eval=sorted(set(rel)),
        rtol=1e-10,
        atol=1e-12,
        method="DOP853",
    )
    if not sol.success:
        raise NumericalError(f"moment integration failed: {sol.message}")
    lookup = {t: sol.y[:, i].reshape(6, 6) for i, t in enumerate(sol.t)}
    return [lookup[dt] for dt in rel]


def steady_state_moments(M: np.ndarray, diffusion: np.ndarray) -> MomentMatrix:
    """Solve ``M V + V M^dag + D = 0`` for the steady-state moment matrix."""
    M = np.asarray(M, dtype=complex)
    abscissa = float(rightmost_eigenvalue(M).real)
    if abscissa >= 0:
        raise StabilityError(
            f"drift matrix is not strictly stable (spectral abscissa {abscissa:.3e})",
            max_real_eigenvalue=abscissa,
        )
    import scipy.linalg

    V = scipy.linalg.solve_sylvester(M, M.conj().T, -np.asarray(diffusion, dtype=complex))
    return MomentMatrix(V, float("inf"))


def occupations_from_moment_stack(V: np.ndarray) -> np.ndarray:
    """Normally ordered occupations ``(n1, n2, n3)`` of each matrix of a ``(n, 6, 6)`` stack, as ``(n, 3)``."""
    n = V[:, [1, 3, 5], [1, 3, 5]].real
    bad = n < -1e-10
    if bad.any():
        raise NumericalError(f"negative occupation {n[bad][0]:.3e} from moment matrix")
    return n


def occupations_from_moments(V: MomentMatrix):
    """Normally ordered occupations ``(n1, n2, n3)`` read off the moment matrix."""
    return tuple(occupations_from_moment_stack(V.V[None])[0].tolist())


def _abs2(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` per element, rounded as libm ``hypot`` then ``pow``.

    NumPy's array ``abs`` and its ``x**2`` (a multiply) differ from these in
    the last bit for about one value in a thousand, which would make
    ``zeta12`` depend on whether it was computed alone or in a stack.
    """
    return np.array([math.pow(abs(x), 2.0) for x in z.tolist()])


def zeta12_from_moment_stack(V: np.ndarray) -> np.ndarray:
    """Relative number squeezing of each matrix of a ``(n, 6, 6)`` stack of zero-mean Gaussian states.

    The fourth moments in ``Var(n1 - n2)`` factorize by Wick's theorem into::

        Var(n1) = n1 (n1 + 1) + |<a1 a1>|^2
        Var(n2) = n2 (n2 + 1) + |<a2 a2>|^2
        Cov(n1, n2) = |<a1 a2>|^2 + |<a1^dag a2>|^2

    so that ``zeta12 = (Var(n1) + Var(n2) - 2 Cov(n1, n2)) / (n1 + n2)``.
    This expansion is unit-tested against a brute-force Fock computation.
    Returns 1 by convention where the denominator is below 1e-14.
    """
    n1 = V[:, 1, 1].real
    n2 = V[:, 3, 3].real
    m1 = _abs2(V[:, 0, 1])  # <a1 a1>
    m2 = _abs2(V[:, 2, 3])  # <a2 a2>
    c12 = _abs2(V[:, 0, 3])  # <a1 a2>
    d12 = _abs2(V[:, 1, 3])  # <a1^dag a2>
    num = n1 * (n1 + 1.0) + n2 * (n2 + 1.0) + m1 + m2 - 2.0 * c12 - 2.0 * d12
    den = n1 + n2
    out = np.ones(len(den))
    keep = ~(den < 1e-14)
    out[keep] = num[keep] / den[keep]
    return out


def zeta12_from_moments(V: MomentMatrix) -> float:
    """``zeta12`` of one moment matrix; see :func:`zeta12_from_moment_stack`."""
    return float(zeta12_from_moment_stack(V.V[None])[0])


def commutator_offsets(V: MomentMatrix):
    """``<[a_i, a_i^dag]>`` reconstructed from the moment matrix, per mode.

    Equals (1, 1, 1) for canonical closed evolution.
    """
    M = V.V
    return tuple(float((M[2 * i, 2 * i] - M[2 * i + 1, 2 * i + 1]).real) for i in range(3))


def moments_from_fock_state(state: FockState) -> MomentMatrix:
    """Extract the 6x6 moment matrix from a three-mode Fock-space state.

    Brute-force expectation values of all ``v_j v_k^dag`` pairs; this is the
    anti-hallucination oracle used to validate the Wick expansion.
    """
    layout = state.layout
    if layout.n_modes != 3:
        raise ValueError("moment extraction expects a three-mode layout")
    from .fock import mode_annihilator

    ops = []
    for m in range(3):
        a = mode_annihilator(layout, m).matrix
        ops.extend([a, a.conj().T.tocsr()])
    psi = state.amplitudes
    # <v_j v_k^dag> = (v_j^dag psi)^dag (v_k^dag psi), and v_j^dag = v_{swap(j)}
    applied = [ops[_SWAP[j]] @ psi for j in range(6)]
    V = np.zeros((6, 6), dtype=complex)
    for j in range(6):
        for k in range(6):
            V[j, k] = np.vdot(applied[j], applied[k])
    return MomentMatrix(V, float("nan"))
