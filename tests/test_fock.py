"""Truncated Fock space: layouts, ladder operators and the top-level mask."""

import numpy as np
import pytest
import scipy.sparse as sp

from mwsqueeze.fock import ModeLayout, mode_annihilator, top_level_mask


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((1, 4, 4))
    lay = ModeLayout((3, 4, 5))
    assert lay.dim == 60
    assert lay.index((2, 3, 4)) == 59
    assert lay.index((0, 0, 0)) == 0


def test_annihilator_two_level_factor():
    # dims (2,2,2): the mode-0 factor is the 2x2 matrix with the single
    # entry 1 connecting |1> -> |0>, kron-embedded to 8x8
    lay = ModeLayout((2, 2, 2))
    a = mode_annihilator(lay, 0).toarray()
    assert a.shape == (8, 8)
    expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(4))
    assert np.array_equal(a, expected)
    with pytest.raises(ValueError):
        mode_annihilator(lay, 3)


@pytest.mark.parametrize("dims", [(4, 3, 5), (17, 17, 10)])
def test_annihilator_matches_kron_build(dims):
    # the single-mode ladder kron-embedded between identities
    lay = ModeLayout(dims)
    for mode, d in enumerate(dims):
        factors = [
            sp.diags(np.sqrt(np.arange(1, k)), 1, format="csr", dtype=complex)
            if m == mode else sp.identity(k, format="csr", dtype=complex)
            for m, k in enumerate(dims)
        ]
        ref = factors[0]
        for f in factors[1:]:
            ref = sp.kron(ref, f, format="csr")
        a = mode_annihilator(lay, mode)
        assert np.array_equal(a.data, ref.data)
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.indptr, ref.indptr)


def test_single_quantum_matrix_element():
    for dims in [(2, 2, 2), (5, 4, 3), (7, 7, 7)]:
        lay = ModeLayout(dims)
        adag = mode_annihilator(lay, 0).conj().T
        elem = adag[lay.index((1, 0, 0)), lay.index((0, 0, 0))]
        assert elem == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_commutator_identity_below_truncation(d):
    lay = ModeLayout((d, d, d))
    occ = lay.occupation_arrays()
    for m in range(3):
        a = mode_annihilator(lay, m)
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        off_diag = comm - np.diag(np.diag(comm))
        assert np.max(np.abs(off_diag)) == 0.0
        interior = occ[m] < d - 1
        assert np.allclose(np.diag(comm)[interior], 1.0)
        # the top truncation level absorbs the trace: 1 - d there
        assert np.allclose(np.diag(comm)[~interior], 1.0 - d)


def test_cross_mode_commutators_vanish():
    lay = ModeLayout((3, 4, 2))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ai = mode_annihilator(lay, i)
            aj = mode_annihilator(lay, j)
            comm = ai @ aj.conj().T - aj.conj().T @ ai
            assert abs(comm).max() == 0.0 if comm.nnz else True
            assert comm.nnz == 0 or abs(comm).max() == 0.0


def test_top_level_mask():
    lay = ModeLayout((2, 2, 2))
    mask = top_level_mask(lay)
    assert mask.sum() == 7  # everything except |0,0,0>
    assert not mask[lay.index((0, 0, 0))]
