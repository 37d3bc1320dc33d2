"""CSR references on the composite space, built independently of the library's index arithmetic.

The ladder operators are kron products of single-mode matrices, and every
Hamiltonian built from them is a sum of their sparse products, so these
oracles share no code with ``fock.mode_annihilator`` or
``fock_dynamics._box_entries``.  :func:`entries` and :func:`csr` are the
other side of such comparisons: the library's own entries of a
``FockOperator``.  scipy is a test-only dependency of the fock layer.
"""

import numpy as np
import scipy.sparse as sp

from mwsqueeze import fock_dynamics as fdyn
from mwsqueeze.params import COUPLING_TERMS, CONSERVED_CHARGE, coupling_pair


def csr_annihilator(layout, mode):
    """The single-mode annihilator of ``mode`` kron-embedded between identities, as canonical CSR."""
    factors = [
        sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr", dtype=complex)
        if m == mode else sp.identity(d, format="csr", dtype=complex)
        for m, d in enumerate(layout.dims)
    ]
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def ladder_hamiltonian(c, ops, terms=COUPLING_TERMS):
    """``sum i xi T - i xi* T^dag`` over ``terms`` as products of the sparse annihilators ``ops``.

    ``T`` applies its lowering factor, if any, first, so no product passes
    through a state above the truncation.
    """
    H = 0
    for (kind, j, k), xi in zip(terms, coupling_pair(c)):
        T = ops[j].conj().T @ (ops[k].conj().T if kind == "pair" else ops[k])
        H = H + 1j * xi * T - 1j * np.conj(xi) * T.conj().T
    return H.tocsr()


def conserved_number(layout):
    """The diagonal constant of motion ``n2 - n1 + n3``, with per-mode coefficients ``CONSERVED_CHARGE``."""
    diag = np.dot(CONSERVED_CHARGE, layout.occupation_arrays())
    return sp.diags(diag.astype(complex), 0, format="csr")


def entries(H):
    """The ``_box_entries`` of a ``FockOperator`` over its whole box, as ``(rows, cols, vals)``."""
    return fdyn._box_entries(H, np.arange(H.layout.dim))


def csr(H):
    """The nonzero entries of a ``FockOperator`` as a canonical CSR matrix."""
    rows, cols, vals = entries(H)
    return sp.csr_matrix((vals, (rows, cols)), shape=(H.layout.dim,) * 2)


def assert_same_csr(A, B):
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, field), getattr(B, field)), field
