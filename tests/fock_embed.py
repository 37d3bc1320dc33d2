"""Full-layout amplitude vectors of a fock trajectory, for oracles on the composite space."""

import numpy as np


def embedded(traj, layout):
    """Yield each sample of ``traj`` as a full-layout vector, one at a time: its block's amplitudes, zero elsewhere."""
    for amps in traj.states:
        psi = np.zeros(layout.dim, dtype=complex)
        psi[traj.block] = amps
        yield psi
