"""Controlled generation of two-mode squeezed microwave fields: simulation suite.

Three mutually cross-checking computational routes for the dynamics of two
cavity modes coupled to a collective atomic spin mode:

* :mod:`mwsqueeze.fock_dynamics` -- exact state-vector evolution on a
  truncated Fock space;
* :mod:`mwsqueeze.moments` -- exact second-moment (Gaussian) propagation:
  occupations exact at any photon number, ``zeta12`` within a few ``n eps``
  at ``n`` photons per mode, down to ``r -> 1+``;
* :mod:`mwsqueeze.closed_form` -- the closed-form solution and derived
  scalars.

:mod:`mwsqueeze.spectrum` computes the output squeezing spectrum from the
quantum Langevin equations, :mod:`mwsqueeze.raman` validates the adiabatic
elimination of the driven four-level model, and :mod:`mwsqueeze.feasibility`
holds the experimental estimates.  ``mwsqueeze.cli`` is the command-line
front end.
"""

from .params import DecayRates, EffectiveCouplings
from .fock import FockOperator, ModeLayout

__all__ = [
    "DecayRates",
    "EffectiveCouplings",
    "FockOperator",
    "ModeLayout",
    "__version__",
]

__version__ = "0.1.0"
