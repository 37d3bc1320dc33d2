"""Parameter types shared by the dynamical and spectral modules.

All rates are angular (rad/s).  Conversion from ordinary frequency happens at
the interfaces that speak Hz (CLI, presets), never inside the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["COUPLING_TERMS", "CONSERVED_CHARGE", "EffectiveCouplings", "DecayRates",
           "coupling_pair", "oscillation_rate"]

# The model's couplings over the modes (cavity 1, cavity 2, spin), with rates
# (xi1, xi2) in this order: ("pair", j, k) is ``i xi a_j^dag a_k^dag + h.c.``
# and ("exchange", j, k) is ``i xi a_j^dag a_k + h.c.``.
COUPLING_TERMS = (("pair", 0, 2), ("exchange", 1, 2))
# per-mode weights of the charge both terms conserve, ``n2 - n1 + n3``
CONSERVED_CHARGE = (-1, 1, 1)


def _check_squares(xi1: complex, xi2: complex):
    """Refuse a rate whose square is not a finite double: theta and the closed form square them."""
    for name, x in (("xi1", abs(xi1)), ("xi2", abs(xi2))):
        if not x * x < math.inf:
            raise ValueError(f"|{name}| = {x:g} rad/s is too large: its square overflows a double")


def coupling_pair(c):
    """Resolve a couplings argument to a raw ``(xi1, xi2)`` complex pair.

    Accepts an :class:`EffectiveCouplings`, a plain pair (no
    magnitude-ordering constraint, for edge cases like zero coupling or
    stability studies), or ``None`` for the uncoupled case.
    """
    if c is None:
        return 0.0 + 0.0j, 0.0 + 0.0j
    if isinstance(c, EffectiveCouplings):
        return complex(c.xi1), complex(c.xi2)
    xi1, xi2 = (complex(xi) for xi in c)
    _check_squares(xi1, xi2)
    return xi1, xi2


def oscillation_rate(c) -> float | None:
    """``theta = sqrt(|xi2|^2 - |xi1|^2)`` of a couplings argument, or None unless ``theta^2 > 0``.

    ``theta^2`` can underflow to 0 although ``|xi2| > |xi1|``; that is None too.
    """
    x1, x2 = (abs(xi) for xi in coupling_pair(c))
    theta2 = x2**2 - x1**2
    return math.sqrt(theta2) if theta2 > 0 else None


@dataclass(frozen=True)
class EffectiveCouplings:
    """The pair of effective coupling rates of the three-oscillator model.

    ``xi1`` is the pair-creation (cavity 1 <-> spin) rate and ``xi2`` the
    excitation-exchange (cavity 2 <-> spin) rate.  ``|xi2| > |xi1| > 0`` is
    required so that the oscillation rate ``theta = sqrt(|xi2|^2 - |xi1|^2)``
    is real and the target two-mode squeezed state is normalizable; rates
    whose squares overflow, or make ``theta`` underflow to 0, are refused.
    """

    xi1: complex
    xi2: complex

    def __post_init__(self):
        x1, x2 = abs(complex(self.xi1)), abs(complex(self.xi2))
        if not x1 > 0:
            raise ValueError("|xi1| must be positive")
        if not x2 > x1:
            raise ValueError(f"|xi2| must exceed |xi1|, got |xi1|={x1:g}, |xi2|={x2:g}")
        _check_squares(complex(self.xi1), complex(self.xi2))
        if self.theta is None:
            raise ValueError(
                f"theta = sqrt(|xi2|^2 - |xi1|^2) underflows to 0 at |xi1|={x1:g}, |xi2|={x2:g}"
            )

    @property
    def r(self) -> float:
        """Coupling ratio ``|xi2 / xi1|`` (> 1)."""
        return abs(complex(self.xi2)) / abs(complex(self.xi1))

    @property
    def theta(self) -> float:
        """Oscillation rate ``sqrt(|xi2|^2 - |xi1|^2)`` in rad/s."""
        return oscillation_rate(self)

    @classmethod
    def from_theta_r(cls, theta: float, r: float) -> "EffectiveCouplings":
        """Real, positive couplings with the given oscillation rate and ratio."""
        if not 0 < theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not r > 1:
            raise ValueError("r must exceed 1")
        xi1 = theta / math.sqrt(r * r - 1.0)
        if not xi1 > 0:
            raise ValueError(f"r = {r:g} is too large: xi1 = theta / sqrt(r^2 - 1) underflows to 0")
        return cls(xi1, r * xi1)


@dataclass(frozen=True)
class DecayRates:
    """Cavity and collective-spin decay rates (rad/s).

    ``kappa1`` and ``kappa2`` are full-width (energy) decay rates; amplitudes
    damp at ``kappa/2``.  ``gamma_s`` is an extension knob for the spin mode
    and defaults to zero.
    """

    kappa1: float = 0.0
    kappa2: float = 0.0
    gamma_s: float = 0.0

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "gamma_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name):g} rad/s")

    @classmethod
    def cavities(cls, kappa: float) -> "DecayRates":
        """Both cavities damped at the same rate, spin undamped."""
        return cls(kappa1=kappa, kappa2=kappa, gamma_s=0.0)
