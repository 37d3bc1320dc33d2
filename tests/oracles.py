"""References that only the tests use: the two-mode squeezed target and the frequency-side moment integral."""

import numpy as np

from mwsqueeze import moments as mom
from mwsqueeze import spectrum as spec


def tmss_amplitudes(r, n_max):
    """Amplitudes of the two-mode squeezed target over ``|n, n>``, ``r > 1``.

    ``amp_n`` is proportional to ``(2r/(1+r^2))^n`` and the vector is
    magnitude-normalized over the truncation; the untruncated prefactor
    magnitude is ``(r^2-1)/(1+r^2)``.
    """
    amps = (2.0 * r / (1.0 + r * r)) ** np.arange(n_max + 1)
    return (amps / np.linalg.norm(amps)).astype(complex)


def target_state(layout, r):
    """The two-mode squeezed target over ``|n, n>`` tensored with spin vacuum, on a three-mode layout."""
    n_max = min(layout.dims[0], layout.dims[1]) - 1
    amps = tmss_amplitudes(r, n_max)
    psi = np.zeros(layout.dim, dtype=complex)
    for n in range(n_max + 1):
        psi[layout.index((n, n, 0))] = amps[n]
    return psi


def fidelity_with_target(psi, layout, r):
    """Overlap ``|<target|psi>|^2`` with the magnitude-normalized target."""
    return float(abs(np.vdot(target_state(layout, r), psi)) ** 2)


def spectral_moment_integral(c, d, omega_max, points):
    """Frequency-side steady-state moment matrix (Parseval counterpart).

    Integrates ``T(w) C T(-w)^T P / (2 pi)`` over ``[-omega_max, omega_max]``
    by the trapezoid rule, where ``T(w) = (-i w I - M)^{-1} N``.  For a
    stable drift this converges to the steady-state ``<v v^dag>`` as the
    window grows.
    """
    M = mom.drift_matrix(c, d)
    grid = np.linspace(-omega_max, omega_max, points)
    z = -1j * np.concatenate([grid, -grid])
    N = spec._input_coupling(d)
    T = np.zeros((6, 6, len(z)), dtype=complex)
    for s, B, p in spec._sectors(M, range(6)):
        T[np.ix_(s, s)] = spec._horner(B * N[s], z) / spec._horner(p, z)
    val = np.einsum("ajn,bjn->nab", T[:, 0::2, :points], T[:, 1::2, points:])[..., list(mom._SWAP)]
    acc = (0.5 * (val[1:] + val[:-1]) * np.diff(grid)[:, None, None]).sum(axis=0)
    return acc / (2.0 * np.pi)
