"""Closed-form solution of the three-oscillator dynamics from vacuum.

Everything here is evaluated directly from formulas, with no time stepping:
mode occupations, the factorized-propagator amplitude table of the evolved
state, the squeezing degree, and the preparation time.  These serve as the
reference values for the state-vector and second-moment routes.
"""

from __future__ import annotations

import math

import numpy as np

from .params import EffectiveCouplings

__all__ = [
    "occupations_closed_form",
    "zeta12_closed_form",
    "zeta12_closed_form_grid",
    "zeta12_ratio",
    "propagator_amplitudes",
    "evolved_amplitudes",
    "squeezing_parameter",
    "t_pi",
    "photons_per_mode_at_t_pi",
    "suggest_cavity_cutoff",
    "suggest_spin_cutoff",
]


def occupations_closed_form(c: EffectiveCouplings, t) -> np.ndarray:
    """Occupations ``(n1, n2, n3)`` of the closed dynamics from vacuum at a time or times ``t``.

    With ``theta = sqrt(|xi2|^2 - |xi1|^2)``::

        n2 = (|xi1|^2 |xi2|^2 / theta^4) (cos(theta t) - 1)^2
        n3 = (|xi1|^2 / theta^2) sin^2(theta t)
        n1 = n2 + n3

    Returns shape ``np.shape(t) + (3,)``.  The trigonometric factors are
    taken per element with :mod:`math`, so a sample's bits do not depend on
    the grid it is evaluated on, and a scalar ``t`` takes the same path.
    A phase ``theta t`` that is not finite is refused with ``ValueError``.
    """
    x1 = abs(complex(c.xi1))
    x2 = abs(complex(c.xi2))
    th = c.theta
    a2 = (x1 * x2 / th**2) ** 2
    a3 = (x1 / th) ** 2
    t = np.asarray(t, dtype=float)
    flat = []
    for x in t.ravel().tolist():
        q = th * x  # a Python float: an overflow gives inf, refused here, and no numpy warning
        if not math.isfinite(q):
            raise ValueError(f"the phase theta * t must be finite, got {q}")
        n2 = a2 * (math.cos(q) - 1.0) ** 2
        n3 = a3 * math.sin(q) ** 2
        flat += (n2 + n3, n2, n3)
    return np.array(flat).reshape(t.shape + (3,))


def zeta12_ratio(var, total):
    """``zeta12 = Var(n1 - n2) / (n1 + n2)`` as ``var / total`` per element, on every route.

    Where ``total < 1e-14``, vacuum's 0/0, it is the independent-states value 1 (the t -> 0 limit).
    """
    total = np.asarray(total)
    out = np.ones(total.shape)
    np.divide(var, total, out=out, where=~(total < 1e-14))
    return out[()]


def zeta12_closed_form_grid(occupations: np.ndarray) -> np.ndarray:
    """Closed-form ``zeta12`` from the ``(n, 3)`` (or ``(3,)``) occupations of :func:`occupations_closed_form`.

    On the reachable subspace the conserved combination
    ``n2 - n1 + n3 = 0`` makes ``n1 - n2`` equal to the spin number operator,
    and the spin marginal of the evolved state is thermal with mean ``n3``,
    so ``Var(n1 - n2) = n3 (1 + n3)`` and::

        zeta12 = n3 (1 + n3) / (n1 + n2)

    by :func:`zeta12_ratio`, with its vacuum rule.
    """
    n1, n2, n3 = np.asarray(occupations).T
    return zeta12_ratio(n3 * (1.0 + n3), n1 + n2)


def zeta12_closed_form(c: EffectiveCouplings, t: float) -> float:
    """``zeta12`` at one time: :func:`zeta12_closed_form_grid` of the occupations there."""
    return float(zeta12_closed_form_grid(occupations_closed_form(c, t)))


def propagator_amplitudes(c: EffectiveCouplings, t: float) -> tuple[float, float, float]:
    """Scalar amplitudes ``(alpha1, alpha2, exp_alpha4)`` of the factorized propagator acting on vacuum.

    ``exp_alpha4 = 1/sqrt(1+n1)``, ``|alpha1| = sqrt(n3/(1+n1))``,
    ``alpha2 = sqrt(n2/(1+n1))``.  The square roots fix only magnitudes;
    for real non-negative couplings the pair correlation ``<a1 c>`` carries
    the sign of ``sin(theta t)``, so ``alpha1`` flips sign each half period
    while ``alpha2`` (whose correlation goes as ``1 - cos``) stays
    non-negative.  Without that sign the amplitude table disagrees with the
    evolved state beyond the first half period by a relative ``(-1)^m``.
    """
    n1, n2, n3 = occupations_closed_form(c, t)
    sign = 1.0 if math.sin(c.theta * t) >= 0.0 else -1.0
    return sign * math.sqrt(n3 / (1.0 + n1)), math.sqrt(n2 / (1.0 + n1)), 1.0 / math.sqrt(1.0 + n1)


def evolved_amplitudes(
    c: EffectiveCouplings,
    t: float,
    m_max: int,
    n_max: int,
    tail_tol: float = 1e-10,
) -> np.ndarray:
    """Amplitude table of the evolved state from vacuum.

    Entry ``[m, n]`` is the amplitude of the basis state with ``m + n``
    photons in cavity 1, ``n`` photons in cavity 2 and ``m`` collective spin
    excitations::

        amp(m, n) = exp_alpha4 * alpha1^m * alpha2^n * sqrt((m+n)! / (m! n!))

    The table is built up the spin axis, ``amp(m, n) = amp(m-1, n) alpha1
    sqrt((m+n)/m)`` from ``amp(0, n) = exp_alpha4 alpha2^n``, so no factorial
    is formed, and the signed ``alpha1`` carries the sign of each half period.

    Raises
    ------
    ValueError
        If the retained probability falls below ``1 - tail_tol``.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("cutoffs must be non-negative")
    alpha1, alpha2, exp_alpha4 = propagator_amplitudes(c, t)
    m = np.arange(1, m_max + 1)[:, None]
    n = np.arange(n_max + 1)
    steps = np.vstack([np.ones(n_max + 1), alpha1 * np.sqrt((m + n) / m)])
    amps = exp_alpha4 * alpha2**n * np.cumprod(steps, axis=0)
    retained = float(np.sum(amps**2))
    if retained < 1.0 - tail_tol:
        raise ValueError(
            f"cutoffs (m_max={m_max}, n_max={n_max}) retain {retained:.12f} "
            f"of the norm; tail exceeds {tail_tol:g}"
        )
    return amps.astype(complex)


def squeezing_parameter(r: float) -> float:
    """Two-mode squeezing degree ``atanh(2r / (1 + r^2))``.

    Evaluated as ``log1p(4r / (r - 1)^2) / 2``, which keeps its digits as
    r -> 1+, where ``2r / (1 + r^2)`` rounds toward 1.
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    return 0.5 * math.log1p(4.0 * r / ((r - 1.0) * (r - 1.0)))


def t_pi(c: EffectiveCouplings) -> float:
    """Instant ``pi / theta`` at which the spin decouples from the cavities."""
    return math.pi / c.theta


def photons_per_mode_at_t_pi(r: float) -> float:
    """Per-mode photon number ``4 r^2 / (r^2 - 1)^2`` of the prepared state."""
    if r <= 1:
        raise ValueError("r must exceed 1")
    return 4.0 * r * r / (r * r - 1.0) ** 2


def suggest_cavity_cutoff(r: float, tail_mass: float = 1e-10) -> int:
    """Smallest cavity ``n_max`` whose geometric target-state tail is below ``tail_mass``.

    Uses ``n_max >= log(tail_mass) / log(q)`` with ``q = (2r/(1+r^2))^2``.
    Near r = 1, ``log q`` is ``2 log1p(-d)`` with ``d = 1 - 2r/(1+r^2) =
    (r-1)^2/(1+r^2)``, which does not round to 0.
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    if not 0 < tail_mass < 1:
        raise ValueError("tail_mass must lie in (0, 1)")
    d = (r - 1.0) * (r - 1.0) / (1.0 + r * r)
    if d < 0.5:
        log_q = 2.0 * math.log1p(-d)
    else:
        q = 2.0 * r / (1.0 + r * r)
        log_q = math.log(q * q)
    return int(math.ceil(math.log(tail_mass) / log_q))


def suggest_spin_cutoff(r: float, tail_mass: float = 1e-10) -> int:
    """Smallest spin ``m_max`` bounding the thermal spin tail below ``tail_mass``.

    The spin marginal of the evolved state is thermal; its population ratio
    peaks at ``1/r^2``, so ``m_max >= log(tail_mass) / log(1/r^2)``.
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    if not 0 < tail_mass < 1:
        raise ValueError("tail_mass must lie in (0, 1)")
    return int(math.ceil(math.log(tail_mass) / (-2.0 * math.log(r))))
