"""Two-mode output squeezing spectrum from the quantum Langevin equations.

For each frequency the linear system ``(-i w I - M) v(w) = N v_in(w)`` is
solved with the drift matrix of :mod:`mwsqueeze.moments`; outputs follow the
input-output relation ``a_out = sqrt(kappa) a - a_in``.  The monitored
quadratures are the difference of the amplitude quadratures and the sum of
the phase quadratures of the two cavity outputs; their symmetrized
correlator, with vacuum input statistics, is normalized so that the
uncoupled run gives exactly the shot-noise level 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StabilityError
from .moments import drift_matrix
from .params import DecayRates, EffectiveCouplings, coupling_pair

__all__ = [
    "SpectrumResult",
    "squeezing_spectrum",
    "stability_check",
    "classify_regime",
    "default_omega_grid",
    "spectral_moment_integral",
]

# vacuum input correlations <w_j(t) w_k(t')> = C[j,k] delta(t-t')
_C_VAC = np.zeros((6, 6))
_C_VAC[0, 1] = _C_VAC[2, 3] = _C_VAC[4, 5] = 1.0

# quadrature weights: difference of amplitude quadratures / sum of phase quadratures
_W_PLUS = np.array([1, 1, -1, -1, 0, 0], dtype=complex) / np.sqrt(2.0)
_W_MINUS = -1j * np.array([1, -1, 1, -1, 0, 0], dtype=complex) / np.sqrt(2.0)

# column swap pairing each component with its dagger
_P_SWAP = np.zeros((6, 6))
for _j, _k in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)):
    _P_SWAP[_j, _k] = 1.0


@dataclass
class SpectrumResult:
    """Squeezing spectrum samples plus regime metadata."""

    omega: np.ndarray  # rad/s, symmetric about 0
    s_plus: np.ndarray
    s_minus: np.ndarray
    minima: list  # [(omega, S)] local minima of s_plus
    regime_label: str  # "three-minima" | "single-broad" | "narrow"
    theta: float | None = None
    kappa: float | None = None


def _input_coupling(d: DecayRates) -> np.ndarray:
    return np.diag(
        [np.sqrt(d.kappa1)] * 2 + [np.sqrt(d.kappa2)] * 2 + [np.sqrt(d.gamma_s)] * 2
    ).astype(complex)


def stability_check(c, d: DecayRates):
    """Spectral abscissa of the drift matrix; stable iff all real parts < 0."""
    M = drift_matrix(c, d)
    ev = np.linalg.eigvals(M)
    abscissa = float(ev.real.max())
    return abscissa < 0.0, abscissa


def default_omega_grid(theta: float, kappa: float, points: int = 2001) -> np.ndarray:
    """Symmetric grid resolving the spectrum features: +-3*max(theta, kappa)."""
    span = 3.0 * (theta if theta >= kappa else kappa)
    return np.linspace(-span, span, points)


def _scattering(M, N, omega, active):
    A = (-1j * omega * np.eye(6, dtype=complex) - M)[np.ix_(active, active)]
    T = np.linalg.solve(A, N[np.ix_(active, active)])
    S = np.zeros((6, 6), dtype=complex)
    S[np.ix_(active, active)] = N[np.ix_(active, active)] @ T
    S -= np.eye(6)
    return S


def _raw_density(M, N, omega, weights, active):
    Sw = _scattering(M, N, omega, active)
    Smw = _scattering(M, N, -omega, active)
    y_w = weights @ Sw
    y_mw = weights @ Smw
    val = y_w @ _C_VAC @ y_mw + y_mw @ _C_VAC @ y_w
    return complex(val)


def squeezing_spectrum(c, d: DecayRates, omega_grid) -> SpectrumResult:
    """Output squeezing spectrum ``S+-(w)`` over a symmetric frequency grid.

    ``c`` may be an :class:`EffectiveCouplings`, a raw ``(xi1, xi2)`` pair,
    or ``None`` for the shot-noise calibration run.  The drift matrix must be
    strictly stable unless the couplings vanish.

    Raises
    ------
    StabilityError
        If any drift eigenvalue has a non-negative real part (coupled case).
    ValueError
        If the grid is not symmetric about zero.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or len(omega) < 3:
        raise ValueError("omega grid must be a 1-d array with at least 3 points")
    scale = max(abs(omega).max(), 1.0)
    if np.max(np.abs(omega + omega[::-1])) > 1e-9 * scale:
        raise ValueError("omega grid must be symmetric about 0")

    xi1, xi2 = coupling_pair(c)
    coupled = xi1 != 0 or xi2 != 0
    M = drift_matrix((xi1, xi2), d)
    N = _input_coupling(d)

    # modes with neither damping nor coupling are excluded from the solve;
    # with zero coupling and gamma_s = 0 the spin block is singular at w = 0
    # but also completely decoupled from the monitored outputs.
    active = [0, 1, 2, 3]
    if d.gamma_s > 0 or coupled:
        active += [4, 5]

    if coupled:
        ev = np.linalg.eigvals(M)
        abscissa = float(ev.real.max())
        if abscissa >= 0:
            worst = ev[np.argmax(ev.real)]
            raise StabilityError(
                f"drift matrix unstable: eigenvalue {worst:.6g} has real part "
                f"{abscissa:.3e} >= 0",
                max_real_eigenvalue=abscissa,
            )

    # scalar shot-noise calibration: same pipeline, couplings off, at w = 0
    M0 = drift_matrix(None, d)
    shot = _raw_density(M0, N, 0.0, _W_PLUS, [0, 1, 2, 3]).real
    if shot <= 0:
        raise NumericalError("shot-noise calibration returned a non-positive density")

    s_plus = np.empty(len(omega))
    s_minus = np.empty(len(omega))
    for i, w in enumerate(omega):
        vp = _raw_density(M, N, w, _W_PLUS, active)
        vm = _raw_density(M, N, w, _W_MINUS, active)
        if max(abs(vp.imag), abs(vm.imag)) > 1e-9 * shot:
            raise NumericalError(f"spectrum density not real at omega={w:g}")
        s_plus[i] = vp.real / shot
        s_minus[i] = vm.real / shot
    if s_plus.min() < -1e-10 or s_minus.min() < -1e-10:
        raise NumericalError("squeezing spectrum dipped below zero beyond tolerance")

    minima = find_local_minima(omega, s_plus)
    theta = None
    if isinstance(c, EffectiveCouplings):
        theta = c.theta
    elif coupled and abs(xi2) > abs(xi1):
        theta = float(np.sqrt(abs(xi2) ** 2 - abs(xi1) ** 2))
    kappa = max(d.kappa1, d.kappa2)
    result = SpectrumResult(omega, s_plus, s_minus, minima, "narrow", theta, kappa)
    result.regime_label = classify_regime(result, theta if theta is not None else 0.0, kappa)
    return result


def _smooth3(y):
    out = y.copy()
    out[1:-1] = (y[:-2] + y[1:-1] + y[2:]) / 3.0
    return out


def find_local_minima(omega, s, min_separation=3):
    """Strict three-point local minima after light smoothing over 3 samples.

    Minima closer than ``min_separation`` grid steps are merged, keeping the
    deepest.  Returns ``[(omega, S)]`` with S read off the unsmoothed curve.
    """
    y = _smooth3(np.asarray(s, dtype=float))
    idx = [i for i in range(1, len(y) - 1) if y[i] < y[i - 1] and y[i] < y[i + 1]]
    merged = []
    for i in idx:
        if merged and i - merged[-1] < min_separation:
            if s[i] < s[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)
    return [(float(omega[i]), float(s[i])) for i in merged]


def classify_regime(result: SpectrumResult, theta: float, kappa: float) -> str:
    """Regime label from the minima structure.

    "three-minima" for exactly three separated local minima; "single-broad"
    for one minimum whose full width at ``(1 + min S)/2`` exceeds ``kappa``;
    "narrow" otherwise.
    """
    minima = result.minima
    if len(minima) == 3:
        return "three-minima"
    if len(minima) == 1:
        s = np.asarray(result.s_plus)
        omega = np.asarray(result.omega)
        gi = int(np.argmin(s))
        height = (1.0 + s[gi]) / 2.0
        lo = gi
        while lo > 0 and s[lo - 1] < height:
            lo -= 1
        hi = gi
        while hi < len(s) - 1 and s[hi + 1] < height:
            hi += 1
        width = omega[hi] - omega[lo]
        if kappa > 0 and width > kappa:
            return "single-broad"
    return "narrow"


def spectral_moment_integral(c, d: DecayRates, omega_max: float, points: int = 20001):
    """Frequency-side steady-state moment matrix (Parseval counterpart).

    Integrates ``T(w) C T(-w)^T P / (2 pi)`` over ``[-omega_max, omega_max]``
    by the trapezoid rule, where ``T(w) = (-i w I - M)^{-1} N``.  For a
    stable drift this converges to the steady-state ``<v v^dag>`` as the
    window grows.
    """
    xi1, xi2 = coupling_pair(c)
    M = drift_matrix((xi1, xi2), d)
    ev = np.linalg.eigvals(M)
    if ev.real.max() >= 0:
        raise StabilityError(
            "spectral integral needs a strictly stable drift",
            max_real_eigenvalue=float(ev.real.max()),
        )
    N = _input_coupling(d)
    grid = np.linspace(-omega_max, omega_max, points)
    acc = np.zeros((6, 6), dtype=complex)
    I6 = np.eye(6, dtype=complex)
    prev = None
    for i, w in enumerate(grid):
        T = np.linalg.solve(-1j * w * I6 - M, N)
        Tm = np.linalg.solve(1j * w * I6 - M, N)
        val = T @ _C_VAC @ Tm.T @ _P_SWAP
        if prev is not None:
            acc += 0.5 * (val + prev) * (grid[i] - grid[i - 1])
        prev = val
    return acc / (2.0 * np.pi)
