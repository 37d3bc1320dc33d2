"""Two-mode output squeezing spectrum from the quantum Langevin equations.

For each frequency ``(-i w I - M) v(w) = N v_in(w)`` with the drift matrix of
:mod:`mwsqueeze.moments`, over the whole grid and its mirror ``-w``; outputs
follow the input-output relation ``a_out = sqrt(kappa) a - a_in``.  ``M`` is
block-diagonal in the charge sectors, where the resolvent is a matrix
polynomial over the characteristic cubic, evaluated by Horner's rule.  The monitored
quadratures are the difference of the amplitude quadratures and the sum of
the phase quadratures of the two cavity outputs; their symmetrized
correlator, with vacuum input statistics, is normalized so that the
uncoupled run gives exactly the shot-noise level 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StabilityError
from .moments import _SECTORS, _SWAP, _rates, _require_stable, drift_matrix
from .params import DecayRates, coupling_pair

__all__ = [
    "SpectrumResult",
    "squeezing_spectrum",
    "stability_check",
    "classify_regime",
    "default_omega_grid",
    "spectral_moment_integral",
]

# quadrature weights, one row each: difference of amplitude quadratures (S+),
# sum of phase quadratures (S-)
_WEIGHTS = np.array([[1, 1, -1, -1, 0, 0], -1j * np.array([1, -1, 1, -1, 0, 0])]) / np.sqrt(2.0)


@dataclass
class SpectrumResult:
    """Squeezing spectrum samples plus regime metadata."""

    omega: np.ndarray  # rad/s, symmetric about 0
    s_plus: np.ndarray
    s_minus: np.ndarray
    minima: list  # [(omega, S)] local minima of s_plus
    regime_label: str  # "three-minima" | "single-broad" | "narrow"


def _input_coupling(d: DecayRates) -> np.ndarray:
    return np.sqrt(np.repeat(_rates(d), 2))


def stability_check(c, d: DecayRates):
    """Spectral abscissa of the drift matrix; stable iff all real parts < 0."""
    try:
        return True, _require_stable(drift_matrix(c, d))
    except StabilityError as exc:
        return False, exc.max_real_eigenvalue


def default_omega_grid(theta: float, kappa: float, points: int = 2001) -> np.ndarray:
    """Symmetric grid resolving the spectrum features: +-3*max(theta, kappa)."""
    span = 3.0 * (theta if theta >= kappa else kappa)
    return np.linspace(-span, span, points)


def _sectors(M, active):
    """``(s, B, p)`` per charge sector ``s`` of the ``active`` components (Faddeev-LeVerrier).

    ``(z - M[s, s])^{-1} = sum_m z^(k-1-m) B[m] / p(z)``, ``p`` the characteristic polynomial.
    """
    for sector in _SECTORS:
        s = [j for j in sector if j in active]
        A = M[np.ix_(s, s)]
        B = [np.eye(len(s), dtype=complex)]
        p = [1.0 + 0.0j]
        for m in range(1, len(s) + 1):
            AB = A @ B[m - 1]
            p.append(-AB.trace() / m)
            B.append(AB + p[m] * np.eye(len(s)))
        yield s, np.array(B[:-1]), np.array(p)  # B[k] = 0 by Cayley-Hamilton


def _horner(coeffs, z):
    """Polynomial with array coefficients ``coeffs`` (highest degree first) at each ``z``, on a last axis."""
    out = coeffs[0][..., None]
    for c in coeffs[1:]:
        out = out * z + c[..., None]
    return out


def _densities(M, N, omega, active):
    """Raw symmetrized densities of both quadratures, ``(2, len(omega))``, from S(w) and S(-w).

    The rows ``w (N (z - M)^{-1} N - I)``, ``z = -i w``, are Horner sums of
    weight-contracted resolvent coefficients; ``N`` is the input coupling's diagonal.
    """
    z = -1j * np.concatenate([omega, -omega])
    y = np.zeros((2, 6, len(z)), dtype=complex)
    for s, B, p in _sectors(M, active):
        w = _WEIGHTS[:, s]
        coeffs = np.einsum("qi,mij->mqj", w * N[s], B) * N[s]
        y[:, s] = _horner(coeffs, z) / _horner(p, z) - w[..., None]
    y_w, y_mw = y[..., :len(omega)], y[..., len(omega):]
    # vacuum inputs pair each component with its dagger: <w_2i(t) w_2i+1(t')> = delta(t - t')
    return (y_w[:, 0::2] * y_mw[:, 1::2] + y_mw[:, 0::2] * y_w[:, 1::2]).sum(axis=1)


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

    # modes with neither damping nor coupling are excluded from the resolvent;
    # with zero coupling and gamma_s = 0 the spin block is singular at w = 0
    # but also completely decoupled from the monitored outputs.
    active = [0, 1, 2, 3]
    if d.gamma_s > 0 or coupled:
        active += [4, 5]

    if coupled:
        _require_stable(M)

    # scalar shot-noise calibration: same pipeline, couplings off, at w = 0; the raw
    # rad/s sums may overflow at extreme rate scales, which is refused, not warned about
    M0 = drift_matrix(None, d)
    with np.errstate(all="ignore"):
        shot = _densities(M0, N, np.zeros(1), [0, 1, 2, 3])[0, 0].real
        dens = _densities(M, N, omega, active)
    if not shot > 0:
        raise NumericalError("shot-noise calibration returned a non-positive density")
    if not (np.isfinite(dens).all() and np.isfinite(shot)):
        raise NumericalError("spectrum density is not finite at this rate scale")
    not_real = np.abs(dens.imag).max(axis=0) > 1e-9 * shot
    if not_real.any():
        raise NumericalError(f"spectrum density not real at omega={omega[np.argmax(not_real)]:g}")
    s_plus, s_minus = dens.real / shot
    if s_plus.min() < -1e-10 or s_minus.min() < -1e-10:
        raise NumericalError("squeezing spectrum dipped below zero beyond tolerance")

    minima = find_local_minima(omega, s_plus)
    result = SpectrumResult(omega, s_plus, s_minus, minima, "narrow")
    result.regime_label = classify_regime(result, max(d.kappa1, d.kappa2))
    return result


def _smooth3(y):
    out = y.copy()
    out[1:-1] = (y[:-2] + y[1:-1] + y[2:]) / 3.0
    return out


# S is shot-noise normalised, so a flat spectrum sits at 1 up to a few ulps;
# a dip shallower than this against both smoothed neighbours is rounding
_DIP_FLOOR = 1e-12
# local minima closer than this many grid steps count as one dip
_MIN_SEPARATION = 3


def find_local_minima(omega, s):
    """Three-point local minima, deeper than ``_DIP_FLOOR``, after light smoothing over 3 samples.

    Minima closer than ``_MIN_SEPARATION`` grid steps are merged, keeping the
    deepest.  Returns ``[(omega, S)]`` with S read off the unsmoothed curve.
    """
    y = _smooth3(np.asarray(s, dtype=float))
    dip = (y[1:-1] + _DIP_FLOOR < y[:-2]) & (y[1:-1] + _DIP_FLOOR < y[2:])
    idx = (np.flatnonzero(dip) + 1).tolist()
    merged = []
    for i in idx:
        if merged and i - merged[-1] < _MIN_SEPARATION:
            if s[i] < s[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)
    return [(float(omega[i]), float(s[i])) for i in merged]


def classify_regime(result: SpectrumResult, kappa: float) -> str:
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
    M = drift_matrix(coupling_pair(c), d)
    _require_stable(M)
    grid = np.linspace(-omega_max, omega_max, points)
    z = -1j * np.concatenate([grid, -grid])
    N = _input_coupling(d)
    T = np.zeros((6, 6, len(z)), dtype=complex)
    for s, B, p in _sectors(M, range(6)):
        T[np.ix_(s, s)] = _horner(B * N[s], z) / _horner(p, z)
    val = np.einsum("ajn,bjn->nab", T[:, 0::2, :points], T[:, 1::2, points:])[..., list(_SWAP)]
    acc = (0.5 * (val[1:] + val[:-1]) * np.diff(grid)[:, None, None]).sum(axis=0)
    return acc / (2.0 * np.pi)
