"""Experimental feasibility estimates and the rubidium/stripline preset.

Rates are angular (rad/s) internally; everything user-facing in this module
speaks ordinary frequency (Hz) with explicit ``/2pi`` conversion at the
boundary, which is why every dimensioned field name carries its unit
(``_hz`` or ``_s``); the ``feasibility`` command writes the fields under
these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import closed_form
from .params import EffectiveCouplings

__all__ = [
    "HBAR",
    "KBOLTZ",
    "thermal_occupation",
    "absorption_rate",
    "thermal_suppression",
    "heating_rate",
    "crossover_temperature",
    "ExperimentPreset",
    "rb_preset",
]

# CODATA values, 9 significant digits
HBAR = 1.05457182e-34  # J s
KBOLTZ = 1.38064900e-23  # J / K

TWO_PI = 2.0 * math.pi


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Bose occupation ``1 / expm1(x)``, ``x = hbar omega / kB T``, at frequency in Hz.

    It is ``exp(-x)``, subnormal or 0, where ``expm1`` overflows, and 0 where ``kB T`` underflows.
    """
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    kt = KBOLTZ * temperature
    x = HBAR * TWO_PI * frequency / kt if kt else math.inf
    try:
        return 1.0 / math.expm1(x) if x else math.inf
    except OverflowError:
        return math.exp(-x)


def crossover_temperature(frequency: float) -> float:
    """Temperature at which ``hbar omega = kB T`` for a frequency in Hz."""
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    return HBAR * TWO_PI * frequency / KBOLTZ


def absorption_rate(g_single: float, n_atoms: float, gamma_a: float) -> float:
    """Photon absorption rate ``g^2 N / gamma_a`` into the atomic ensemble.

    All rates angular.  Note ``g^2 N`` equals the collective coupling
    squared, so callers holding ``sqrt(N) g`` can pass it as ``g_single``
    with ``n_atoms = 1``.  The intermediate-state linewidth ``gamma_a`` has
    no value in the source material and is a required input.
    """
    if gamma_a <= 0:
        raise ValueError("gamma_a must be positive")
    if n_atoms < 0:
        raise ValueError("n_atoms must be non-negative")
    return abs(g_single) ** 2 * n_atoms / gamma_a


def thermal_suppression(kappa: float, gamma_c: float) -> float:
    """Thermal-photon suppression factor ``kappa / (gamma_c + kappa)`` in (0, 1]."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if gamma_c < 0:
        raise ValueError("gamma_c must be non-negative")
    return kappa / (gamma_c + kappa)


def heating_rate(kappa: float, n_thermal: float) -> float:
    """Residual heating rate ``kappa * n_thermal``."""
    if kappa < 0 or n_thermal < 0:
        raise ValueError("inputs must be non-negative")
    return kappa * n_thermal


@dataclass(frozen=True)
class ExperimentPreset:
    """Primary experimental numbers plus quantities derived from them.

    Derived values are recomputed from the primaries at construction (see
    :func:`rb_preset`), never stored stale.
    """

    # primaries
    collective_coupling_over_2pi_range_hz: tuple  # (low, high)
    kappa_over_2pi_hz: float
    hyperfine_freq_hz: float
    rabi_ratio: float  # r = |xi2/xi1|
    dispersive_ratio: float  # Delta / g
    theta_over_2pi_hz: float  # pinned outcome
    # derived
    collective_coupling_over_2pi_hz: float  # back-solved from theta
    xi1_over_2pi_hz: float
    xi2_over_2pi_hz: float
    t_pi_s: float
    epsilon: float
    photons_per_mode: float


def rb_preset() -> ExperimentPreset:
    """Cold-Rb-on-stripline preset with all derived figures of merit.

    The oscillation rate is pinned at ``theta/2pi = 10 kHz`` (the quoted
    outcome) and the collective coupling is back-solved through the chain
    ``|xi1| = (collective coupling)/(dispersive ratio)`` that follows from
    drive amplitudes of order the single-atom coupling at detuning 10 g.
    The forward reading of that chain is dimensionally ambiguous; pinning
    theta reproduces the headline numbers deterministically.
    """
    r = 1.1
    dispersive = 10.0
    theta_over_2pi = 10e3
    theta = TWO_PI * theta_over_2pi
    couplings = EffectiveCouplings.from_theta_r(theta, r)
    xi1 = abs(couplings.xi1)
    xi2 = abs(couplings.xi2)
    collective = xi1 * dispersive  # rad/s
    return ExperimentPreset(
        collective_coupling_over_2pi_range_hz=(40e3, 400e3),
        kappa_over_2pi_hz=7e3,
        hyperfine_freq_hz=6.83e9,
        rabi_ratio=r,
        dispersive_ratio=dispersive,
        theta_over_2pi_hz=theta_over_2pi,
        collective_coupling_over_2pi_hz=collective / TWO_PI,
        xi1_over_2pi_hz=xi1 / TWO_PI,
        xi2_over_2pi_hz=xi2 / TWO_PI,
        t_pi_s=closed_form.t_pi(couplings),
        epsilon=closed_form.squeezing_parameter(r),
        photons_per_mode=closed_form.photons_per_mode_at_t_pi(r),
    )
