"""Truncated Fock space: layouts, ladder operators and the top-level test."""

import numpy as np
import pytest

from mwsqueeze.fock import ModeLayout, at_top_level, mode_annihilator, vacuum_state

from fock_csr import csr_annihilator


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((1, 4, 4))
    lay = ModeLayout((3, 4, 5))
    assert lay.dim == 60
    assert lay.index((2, 3, 4)) == 59
    assert lay.index((0, 0, 0)) == 0


@pytest.mark.parametrize("refused,message", [
    (lambda: ModeLayout(()), "at least one mode"),
    (lambda: ModeLayout((3, 4)).index((1,)), "length does not match"),
    (lambda: ModeLayout((3, 4)).index((1, 4)), r"occupation 4 outside \[0, 4\)"),
    (lambda: ModeLayout((3, 4)).index((-1, 0)), r"occupation -1 outside \[0, 3\)"),
], ids=["no-modes", "index-length", "index-above", "index-below"])
def test_layout_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


def _applied_to_basis(lay, mode, dagger=False):
    """The ladder operator's matrix: column i is its action on basis state i."""
    return mode_annihilator(lay, mode, np.eye(lay.dim, dtype=complex), dagger).T


def test_annihilator_two_level_factor():
    # dims (2,2,2): the mode-0 factor is the 2x2 matrix with the single
    # entry 1 connecting |1> -> |0>, kron-embedded to 8x8
    lay = ModeLayout((2, 2, 2))
    a = _applied_to_basis(lay, 0)
    assert a.shape == (8, 8)
    expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(4))
    assert np.array_equal(a, expected)
    with pytest.raises(ValueError):
        mode_annihilator(lay, 3, vacuum_state(lay))


@pytest.mark.parametrize("dims", [(4, 3, 5), (17, 17, 10)])
def test_annihilator_matches_kron_build(dims):
    # the single-mode ladder kron-embedded between identities, applied to a
    # random stack by sparse products: the same bits as the slices
    lay = ModeLayout(dims)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(4, lay.dim)) + 1j * rng.normal(size=(4, lay.dim))
    for mode in range(len(dims)):
        ref = csr_annihilator(lay, mode)
        assert np.array_equal(mode_annihilator(lay, mode, psi), (ref @ psi.T).T)
        assert np.array_equal(mode_annihilator(lay, mode, psi, dagger=True), (ref.conj().T @ psi.T).T)
        assert np.array_equal(mode_annihilator(lay, mode, psi[0]), ref @ psi[0])


def test_single_quantum_matrix_element():
    for dims in [(2, 2, 2), (5, 4, 3), (7, 7, 7)]:
        lay = ModeLayout(dims)
        elem = mode_annihilator(lay, 0, vacuum_state(lay), dagger=True)[lay.index((1, 0, 0))]
        assert elem == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_commutator_identity_below_truncation(d):
    lay = ModeLayout((d, d, d))
    occ = lay.occupation_arrays()
    for m in range(3):
        a, adag = _applied_to_basis(lay, m), _applied_to_basis(lay, m, dagger=True)
        comm = a @ adag - adag @ a
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
            ai = _applied_to_basis(lay, i)
            ajdag = _applied_to_basis(lay, j, dagger=True)
            comm = ai @ ajdag - ajdag @ ai
            assert np.abs(comm).max() == 0.0


def test_top_level_mask():
    lay = ModeLayout((2, 2, 2))
    mask = at_top_level(lay.occupation_arrays(), lay.dims)
    assert mask.sum() == 7  # everything except |0,0,0>
    assert not mask[lay.index((0, 0, 0))]
