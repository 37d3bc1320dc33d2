"""Frozen verification fixtures shared by the validate command and the test suite.

The adiabatic-elimination comparison is meaningful only on the dressed
two-photon resonance: the effective bosonized coupling omits the AC Stark
shifts that survive elimination, and at bare ``delta_two_photon = 0`` those
shifts detune the Raman exchange at the same order as the exchange rate
itself, so full-vs-effective occupations disagree at order one on a
half-period horizon regardless of detuning (0.19 to 0.24 at dispersive
ratios 10 to 40).  The fixture configurations below realize the resonance
inside the excitation-capped model:

* channel 1 is balanced by choosing ``|Omega1|^2 - |g1|^2 = Delta1
  |Omega2|^2 / Delta2`` (drive and coupling shifts cancel across the leg);
* channel 2 is re-centered by a two-photon detuning of Stark magnitude,
  whose value depends on the atom number and excitation cap because capped
  bases lack some virtual states (values found by direct minimization and
  frozen here).

On that resonance the residual deviation scales as the genuine adiabaticity
error, dropping ~4x per doubling of the dispersive ratio.
"""

from __future__ import annotations

import math

from .params import oscillation_rate
from .raman import RamanConfig, effective_couplings

__all__ = [
    "adiabatic_fixture_config",
    "adiabatic_theta",
    "ADIABATIC_FROZEN_DEVIATIONS",
    "ADIABATIC_FROZEN_DEVIATION",
    "ADIABATIC_N2_CONFIG",
    "ADIABATIC_N2_FROZEN_DEVIATION",
    "DEGENERATE_MIN_VAR_AT_T_PI",
    "DEGENERATE_MIN_VAR_AT_HALF_T_PI",
]

# coupling magnitudes solving Omega1*g1 = 1/2.2 (ratio r = 1.1 with
# Delta2 = 2 Delta1, Omega2 = g2 = 1) and Omega1^2 - g1^2 = 1/2 (channel-1
# Stark balance)
_V = (-0.5 + math.sqrt(0.25 + 4.0 * (1.0 / 2.2) ** 2)) / 2.0
_G1 = math.sqrt(_V)
_OMEGA1 = math.sqrt(_V + 0.5)


def adiabatic_fixture_config(dispersive_ratio: float, n_atoms: int = 1) -> RamanConfig:
    """Single-atom validation configuration at the dressed two-photon resonance.

    ``max(|Omega|, |g|) = 1``, so ``Delta1`` is ``dispersive_ratio`` in
    units of the largest drive or coupling; ``Delta2 = 2 Delta1`` keeps
    ``|Delta1 - Delta2|`` at the same scale.  The two-photon detuning
    ``-g1^2/Delta1`` re-centers the capped (cap = 2) channel-2 resonance.
    """
    d1 = float(dispersive_ratio)
    return RamanConfig(
        omega1_rabi=_OMEGA1,
        omega2_rabi=1.0,
        g1=_G1,
        g2=1.0,
        delta1=d1,
        delta2=2.0 * d1,
        delta_two_photon=-_G1**2 / d1,
        n_atoms=n_atoms,
    )


def adiabatic_theta(config: RamanConfig) -> float:
    """Oscillation rate of the effective model for the fixture configs."""
    return oscillation_rate(effective_couplings(config))


# max |n_full - n_eff| over a half-period horizon, 161 samples, cap 2;
# measured 0.06299 / 0.01599 / 0.00402 and frozen with small slack
ADIABATIC_FROZEN_DEVIATIONS = {10: 0.066, 20: 0.0175, 40: 0.0045}
ADIABATIC_FROZEN_DEVIATION = ADIABATIC_FROZEN_DEVIATIONS[20]

# two-atom variant: cap 3, dressed detuning found by direct minimization
ADIABATIC_N2_CONFIG = RamanConfig(
    omega1_rabi=_OMEGA1,
    omega2_rabi=1.0,
    g1=_G1,
    g2=1.0,
    delta1=20.0,
    delta2=40.0,
    delta_two_photon=0.0525,
    n_atoms=2,
)
ADIABATIC_N2_EXCITATION_CAP = 3
# measured 0.02051, frozen with slack
ADIABATIC_N2_FROZEN_DEVIATION = 0.023

# degenerate (single cavity) quadrature-variance fixtures for r = 2: the
# quadrature sectors rotate at the same rate theta, so the state returns to
# vacuum at t = pi/theta and the squeezing extremum sits at the half point
# with Var = (1/2)(r - 1)/(r + 1)
DEGENERATE_MIN_VAR_AT_T_PI = 0.5
DEGENERATE_MIN_VAR_AT_HALF_T_PI = 1.0 / 6.0
