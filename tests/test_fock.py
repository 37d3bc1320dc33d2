"""Truncated Fock space: ladder operators, embedding, expectation values."""

import numpy as np
import pytest

from mwsqueeze.fock import (
    FockOperator,
    FockState,
    ModeLayout,
    basis_state,
    embed_product,
    expectation,
    mode_annihilator,
    mode_number,
    top_level_mask,
    vacuum_state,
)


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
    a = mode_annihilator(lay, 0).matrix.toarray()
    assert a.shape == (8, 8)
    expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(4))
    assert np.array_equal(a, expected)


def test_single_quantum_matrix_element():
    for dims in [(2, 2, 2), (5, 4, 3), (7, 7, 7)]:
        lay = ModeLayout(dims)
        adag = mode_annihilator(lay, 0).matrix.conj().T
        elem = adag[lay.index((1, 0, 0)), lay.index((0, 0, 0))]
        assert elem == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_commutator_identity_below_truncation(d):
    lay = ModeLayout((d, d, d))
    occ = lay.occupation_arrays()
    for m in range(3):
        a = mode_annihilator(lay, m).matrix
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
            ai = mode_annihilator(lay, i).matrix
            aj = mode_annihilator(lay, j).matrix
            comm = ai @ aj.conj().T - aj.conj().T @ ai
            assert abs(comm).max() == 0.0 if comm.nnz else True
            assert comm.nnz == 0 or abs(comm).max() == 0.0


def test_embed_empty_is_identity():
    lay = ModeLayout((3, 3, 3))
    ident = embed_product(lay, []).matrix.toarray()
    assert np.array_equal(ident, np.eye(27))


def test_embed_order_independent():
    lay = ModeLayout((3, 4, 5))
    up = np.diag(np.sqrt(np.arange(1, 3)), -1)  # creation on mode 0 factor
    cup = np.diag(np.sqrt(np.arange(1, 5)), -1)  # creation on mode 2 factor
    ab = embed_product(lay, [(0, up), (2, cup)]).matrix
    ba = embed_product(lay, [(2, cup), (0, up)]).matrix
    assert (ab != ba).nnz == 0


def test_embed_matches_operator_product():
    lay = ModeLayout((4, 3, 4))
    a1dag = mode_annihilator(lay, 0).matrix.conj().T
    cdag = mode_annihilator(lay, 2).matrix.conj().T
    prod = a1dag @ cdag
    up0 = np.diag(np.sqrt(np.arange(1, 4)), -1)
    up2 = np.diag(np.sqrt(np.arange(1, 4)), -1)
    embedded = embed_product(lay, [(0, up0), (2, up2)]).matrix
    assert np.max(np.abs((prod - embedded).toarray())) < 1e-14


def test_embed_number_trace():
    # trace of the embedded mode-0 number operator on (3,2,2): (0+1+2)*2*2
    lay = ModeLayout((3, 2, 2))
    n0 = mode_number(lay, 0).matrix
    assert n0.diagonal().sum() == pytest.approx(12.0)


def test_embed_errors():
    lay = ModeLayout((3, 3, 3))
    mat = np.eye(3)
    with pytest.raises(ValueError):
        embed_product(lay, [(0, mat), (0, mat)])
    with pytest.raises(ValueError):
        embed_product(lay, [(5, mat)])
    with pytest.raises(ValueError):
        embed_product(lay, [(0, np.eye(4))])
    with pytest.raises(ValueError):
        mode_annihilator(lay, 3)


def test_expectation_values():
    lay = ModeLayout((4, 4, 4))
    n0 = mode_number(lay, 0)
    assert expectation(vacuum_state(lay), n0) == pytest.approx(0.0)
    assert expectation(basis_state(lay, (1, 0, 0)), n0) == pytest.approx(1.0)
    # (|0> + |2>)/sqrt(2) in mode 0 has mean occupation 1
    psi = np.zeros(lay.dim, dtype=complex)
    psi[lay.index((0, 0, 0))] = 1 / np.sqrt(2)
    psi[lay.index((2, 0, 0))] = 1 / np.sqrt(2)
    assert expectation(FockState(psi, lay), n0) == pytest.approx(1.0)


def test_expectation_hermitian_is_real():
    rng = np.random.default_rng(7)
    lay = ModeLayout((3, 3, 3))
    a = mode_annihilator(lay, 1).matrix
    herm = FockOperator((a + a.conj().T).tocsr(), lay)
    psi = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    psi /= np.linalg.norm(psi)
    val = expectation(FockState(psi, lay), herm)
    assert abs(val.imag) < 1e-12


def test_expectation_layout_mismatch():
    with pytest.raises(ValueError):
        expectation(vacuum_state(ModeLayout((3, 3, 3))), mode_number(ModeLayout((4, 4, 4)), 0))


def test_top_level_mask():
    lay = ModeLayout((2, 2, 2))
    mask = top_level_mask(lay)
    assert mask.sum() == 7  # everything except |0,0,0>
    assert not mask[lay.index((0, 0, 0))]
