"""Microscopic four-level model and the adiabatic-elimination validator."""

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mwsqueeze import fixtures, raman


def preset_config(n_atoms=1, ratio=10.0):
    d = 1.1 * ratio
    return raman.RamanConfig(1.0, 1.1, 1.0, 1.0, d, d, 0.0, n_atoms)


class TestFullHamiltonian:
    def test_zero_drives_zero_operator(self):
        rc = raman.RamanConfig(0.0, 0.0, 0.0, 0.0, 10.0, 20.0, 0.0, 2)
        basis = raman.AtomicBasis(2, 2)
        for t in (0.0, 0.3, 1.7):
            assert not raman.build_full_hamiltonian(rc, basis, t).any()

    def test_drive_matrix_element(self):
        rc = preset_config()
        basis = raman.AtomicBasis(1, 2)
        H = raman.build_full_hamiltonian(rc, basis, 0.0)
        i_g = basis.index[((0,), 0, 0)]
        i_e1 = basis.index[((2,), 0, 0)]
        assert H[i_e1, i_g] == pytest.approx(complex(rc.omega1_rabi))

    def test_hermitian_at_random_times(self):
        rng = np.random.default_rng(5)
        rc = raman.RamanConfig(0.9 + 0.2j, 1.1, 0.8 - 0.1j, 1.0, 11.0, 23.0, 0.4, 2)
        basis = raman.AtomicBasis(2, 2)
        for _ in range(10):
            t = rng.uniform(0, 10)
            H = raman.build_full_hamiltonian(rc, basis, t)
            assert abs(H - H.conj().T).max() < 1e-14

    @pytest.mark.parametrize("n_atoms, cap", [(1, 2), (2, 2), (2, 3)])
    def test_rotating_frame_of_static_generator(self, n_atoms, cap):
        # H(t) = e^{iAt} (H_s - A) e^{-iAt} with A = diag(H_s): the frame
        # equivalence behind the static-frame route, checked without an integrator
        rng = np.random.default_rng(11)
        rc = raman.RamanConfig(0.9 + 0.2j, 1.1, 0.8 - 0.1j, 1.0, 11.0, 23.0, 0.4, n_atoms)
        basis = raman.AtomicBasis(n_atoms, cap)
        Hs = raman.static_frame_hamiltonian(rc, basis)
        a = np.diag(Hs).real
        for t in rng.uniform(0.0, 10.0, 20):
            rotated = np.exp(1j * np.subtract.outer(a, a) * t) * (Hs - np.diag(a))
            H = raman.build_full_hamiltonian(rc, basis, t)
            assert np.max(np.abs(H - rotated)) < 1e-12

    @pytest.mark.parametrize("horizon, samples", [(25, 11), (40, 5)])
    def test_static_frame_matches_reference_integrator(self, horizon, samples):
        # an adaptive DOP853 run of the time-dependent H(t) against the
        # static-frame route: psi_I(t) = e^{iAt} psi_s(t), A = diag(H_s)
        from scipy.integrate import solve_ivp

        rc = fixtures.adiabatic_fixture_config(10)
        basis = raman.AtomicBasis(1, 2)
        blocks, phases = raman._coupling_blocks(rc, basis)
        dense = np.array(blocks)
        stack = np.concatenate([dense, dense.conj().transpose(0, 2, 1)])
        rates = 1j * np.concatenate([phases, np.negative(phases)])

        def rhs(t, psi):
            return -1j * (np.tensordot(np.exp(rates * t), stack, 1) @ psi)

        times = np.linspace(0.0, horizon, samples)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[basis.ground_index()] = 1.0
        ref = solve_ivp(rhs, (0.0, horizon), psi0, method="DOP853", t_eval=times,
                        rtol=1e-12, atol=1e-12).y.T

        Hs = raman.static_frame_hamiltonian(rc, basis)
        static = raman._evolve(Hs, psi0, times)
        a = Hs.diagonal().real
        assert np.max(np.abs(np.exp(1j * np.outer(times, a)) * static - ref)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(static, axis=1) - 1.0)) < 1e-12

        pe = basis.level_population_diagonal(raman._E1) + basis.level_population_diagonal(raman._E2)
        epop = (np.abs(ref) ** 2 @ pe).max()
        assert raman.adiabatic_error(rc, horizon, samples)[1] == pytest.approx(epop, abs=1e-9)


class TestEffectiveCouplings:
    def test_direct_substitution(self):
        rc = raman.RamanConfig(2.0, 1.0, 2.0, 1.0, 20.0, 10.0, 0.0, 1)
        b1, b2 = raman.effective_couplings(rc)
        assert b1 == pytest.approx(0.2)  # G^2 / (10 G) with G = 2

    def test_sqrt_n_scaling(self):
        b1_1, _ = raman.effective_couplings(preset_config(n_atoms=1))
        b1_4, _ = raman.effective_couplings(preset_config(n_atoms=4))
        assert abs(b1_4) == pytest.approx(2 * abs(b1_1), rel=1e-12)

    def test_preset_ratio(self):
        b1, b2 = raman.effective_couplings(preset_config())
        assert abs(b2 / b1) == pytest.approx(1.1, rel=1e-12)

    def test_zero_detuning_rejected(self):
        rc = raman.RamanConfig(1.0, 1.0, 1.0, 1.0, 0.0, 10.0, 0.0, 1)
        with pytest.raises(ValueError):
            raman.effective_couplings(rc)

    def test_dispersive_ratio_diagnostic(self):
        rc = fixtures.adiabatic_fixture_config(20)
        assert rc.dispersive_ratio == pytest.approx(20.0, rel=1e-12)


@pytest.mark.parametrize("n_atoms, cap", [(1, 2), (2, 3), (3, 2)])
def test_effective_hamiltonian_phases(n_atoms, cap):
    # (beta2 a2 + beta1 a1^dag) c^dag + h.c. with beta_i = sqrt(N) Omega_i^* g_i / Delta_i,
    # written out here from the basis operators, at complex drives and couplings
    rc = raman.RamanConfig(0.9 + 0.2j, 1.1 - 0.3j, 0.8 - 0.1j, 1.0 + 0.5j, 11.0, 23.0, 0.4, n_atoms)
    beta1 = math.sqrt(n_atoms) * np.conj(rc.omega1_rabi) * rc.g1 / rc.delta1
    beta2 = math.sqrt(n_atoms) * np.conj(rc.omega2_rabi) * rc.g2 / rc.delta2
    basis = raman.AtomicBasis(n_atoms, cap)
    cdag = basis.collective_flip().conj().T
    a1dag = basis.annihilator(1).conj().T
    half = beta1 * (a1dag @ cdag) + beta2 * (cdag @ basis.annihilator(2))
    expected = half + half.conj().T
    H = raman.effective_few_atom_hamiltonian(rc, basis)
    assert np.max(np.abs(H - expected)) < 1e-15


class TestAdiabaticError:
    def test_zero_drives_zero_deviation(self):
        rc = raman.RamanConfig(0.0, 0.0, 0.0, 0.0, 10.0, 20.0, 0.0, 1)
        dev, epop = raman.adiabatic_error(rc, 5.0, 5)
        assert dev == 0.0
        assert epop == 0.0

    def test_ratio20_within_frozen_regression(self):
        rc = fixtures.adiabatic_fixture_config(20)
        horizon = math.pi / fixtures.adiabatic_theta(rc)
        dev, epop = raman.adiabatic_error(rc, horizon, 161)
        assert dev <= fixtures.ADIABATIC_FROZEN_DEVIATIONS[20]
        assert dev > 1e-4  # regression floor: the comparison is not vacuous

    def test_monotone_in_dispersive_ratio(self):
        devs = {}
        for ratio in (10, 20, 40):
            rc = fixtures.adiabatic_fixture_config(ratio)
            horizon = math.pi / fixtures.adiabatic_theta(rc)
            devs[ratio], _ = raman.adiabatic_error(rc, horizon, 161)
            assert devs[ratio] <= fixtures.ADIABATIC_FROZEN_DEVIATIONS[ratio]
        assert devs[10] > devs[20] > devs[40]

    def test_intermediate_population_scaling(self):
        # doubling the detunings at fixed beta cuts the e-level population ~4x
        pops = {}
        for ratio in (10, 20, 40):
            rc = fixtures.adiabatic_fixture_config(ratio)
            horizon = math.pi / fixtures.adiabatic_theta(rc)
            _, pops[ratio] = raman.adiabatic_error(rc, horizon, 161)
        assert 3.0 < pops[10] / pops[20] < 5.0
        assert 3.0 < pops[20] / pops[40] < 5.0

    def test_n2_fixture(self):
        rc = fixtures.ADIABATIC_N2_CONFIG
        horizon = math.pi / fixtures.adiabatic_theta(rc)
        dev, _ = raman.adiabatic_error(
            rc, horizon, 81, excitation_cap=fixtures.ADIABATIC_N2_EXCITATION_CAP
        )
        assert dev <= fixtures.ADIABATIC_N2_FROZEN_DEVIATION

    def test_bare_two_photon_detuning_saturates(self):
        # without the dressed-resonance shift the omitted Stark terms detune
        # the exchange at order beta: the deviation is order one and stays
        # there; frozen as an exploratory regression value
        rc = fixtures.adiabatic_fixture_config(20)
        bare = raman.RamanConfig(
            rc.omega1_rabi, rc.omega2_rabi, rc.g1, rc.g2, rc.delta1, rc.delta2, 0.0, 1
        )
        horizon = math.pi / fixtures.adiabatic_theta(bare)
        dev, _ = raman.adiabatic_error(bare, horizon, 161)
        assert 0.1 < dev <= fixtures.ADIABATIC_BARE_RESONANCE_DEVIATION

    def test_desk_scale_guards(self):
        rc = preset_config(n_atoms=5)
        with pytest.raises(ValueError):
            raman.adiabatic_error(rc, 1.0, 5)
        with pytest.raises(ValueError):
            raman.adiabatic_error(preset_config(), 1.0, 5, excitation_cap=4)


class TestBosonization:
    def test_fully_polarized_exact(self):
        basis = raman.AtomicBasis(3, 2)
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.ground_index()] = 1.0
        assert raman.bosonization_residual(basis, psi) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_shared_excitation(self, n):
        basis = raman.AtomicBasis(n, 2)
        psi = np.zeros(basis.dim, dtype=complex)
        for atom in range(n):
            levels = tuple(1 if a == atom else 0 for a in range(n))
            psi[basis.index[(levels, 0, 0)]] = 1 / math.sqrt(n)
        assert raman.bosonization_residual(basis, psi) == pytest.approx(2.0 / n, rel=1e-12)

    def test_fully_inverted_two_atoms(self):
        basis = raman.AtomicBasis(2, 2)
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index[((1, 1), 0, 0)]] = 1.0
        assert raman.bosonization_residual(basis, psi) == pytest.approx(2.0, rel=1e-12)


def test_basis_cap_guard():
    with pytest.raises(ValueError):
        raman.AtomicBasis(1, 1)


@pytest.mark.parametrize("refused,message", [
    (lambda: preset_config(n_atoms=0), "n_atoms must be positive"),
    (lambda: raman.adiabatic_error(preset_config(), 1.0, 1), "at least two samples"),
    (lambda: raman.adiabatic_error(preset_config(), math.nan, 5), "horizon must be finite"),
    (lambda: raman.adiabatic_error(preset_config(), math.inf, 5), "horizon must be finite"),
    (lambda: raman.bosonization_residual(raman.AtomicBasis(2, 2), np.zeros(3)), "does not match basis"),
], ids=["no-atoms", "one-sample", "nan-horizon", "inf-horizon", "state-size"])
def test_malformed_inputs_rejected(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


@pytest.mark.parametrize("mode", [0, 3])
def test_photon_diagonal_refuses_other_modes(mode):
    basis = raman.AtomicBasis(1, 2)
    with pytest.raises(ValueError):
        basis.photon_diagonal(mode)
    with pytest.raises(ValueError):
        basis.annihilator(mode)


def test_adiabatic_error_loads_no_scipy_and_no_fock_layer():
    # the validator's operators are dense arrays on its desk-scale basis
    src = Path(raman.__file__).resolve().parent.parent
    probe = (
        "import sys; from mwsqueeze import fixtures, raman; "
        "raman.adiabatic_error(fixtures.adiabatic_fixture_config(10), 5.0, 11); "
        "print([m for m in sys.modules if m.startswith('scipy') or m == 'mwsqueeze.fock_dynamics'])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_conserved_combination_commutes_with_full_model():
    rc = fixtures.adiabatic_fixture_config(10, n_atoms=2)
    basis = raman.AtomicBasis(2, 2)
    N = np.diag(basis.conserved_combination_diagonal())
    H = raman.static_frame_hamiltonian(rc, basis)
    assert np.max(np.abs(H @ N - N @ H)) < 1e-12


@pytest.mark.parametrize("n_atoms, cap", [(2, 2), (3, 2), (3, 3)])
def test_operator_commutators_below_the_cap(n_atoms, cap):
    # [c, c^dag] = (N_g - N_h)/N and [a_i, a_i^dag] = 1 on every state whose
    # raising stays inside the basis (excitation below the cap)
    basis = raman.AtomicBasis(n_atoms, cap)
    below = [sum(l != raman._G for l in levels) + n1 + n2 < cap for levels, n1, n2 in basis.states]

    def commutator(op):
        return (op @ op.conj().T - op.conj().T @ op)[:, below]

    ng_nh = basis.level_population_diagonal(raman._G) - basis.level_population_diagonal(raman._H)
    expected = np.diag(ng_nh / n_atoms)[:, below]
    assert np.max(np.abs(commutator(basis.collective_flip()) - expected)) < 1e-14
    for mode in (1, 2):
        identity = np.eye(basis.dim)[:, below]
        assert np.max(np.abs(commutator(basis.annihilator(mode)) - identity)) < 1e-14


def _product_loop_basis(n_atoms, cap):
    """Reference: the basis as a product loop over levels and photon numbers, and its position dict."""
    states = []
    for levels in product(range(4), repeat=n_atoms):
        budget = cap - sum(1 for l in levels if l != raman._G)
        for n1 in range(budget + 1):
            for n2 in range(budget - n1 + 1):
                states.append((levels, n1, n2))
    return states, {s: i for i, s in enumerate(states)}


def _dict_walk(index, hops):
    """Reference: ``<target|op|s> = amp`` for each ``(target, amp)`` of ``hops(s)``, walking ``index`` in basis order."""
    rows, cols, data = [], [], []
    for s, i in index.items():
        for target, amp in hops(s):
            j = index.get(target)
            if j is not None:
                rows.append(j)
                cols.append(i)
                data.append(amp)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(index),) * 2, dtype=complex)


def _flip_walk(index, atom, src, dst):
    def hops(s):
        levels, n1, n2 = s
        if levels[atom] == src:
            yield (levels[:atom] + (dst,) + levels[atom + 1:], n1, n2), 1.0

    return _dict_walk(index, hops)


def _annihilator_walk(index, mode):
    def hops(s):
        levels, n1, n2 = s
        n = n1 if mode == 1 else n2
        if n > 0:
            yield ((levels, n1 - 1, n2) if mode == 1 else (levels, n1, n2 - 1)), math.sqrt(n)

    return _dict_walk(index, hops)


@pytest.mark.parametrize("n_atoms, cap", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_index_shifts_match_the_dict_walk(n_atoms, cap):
    basis = raman.AtomicBasis(n_atoms, cap)
    states, index = _product_loop_basis(n_atoms, cap)
    assert basis.states == states
    assert basis.index == index
    assert basis.states[basis.ground_index()] == ((raman._G,) * n_atoms, 0, 0)
    for src, dst in ((raman._G, raman._E1), (raman._H, raman._E2), (raman._H, raman._E1), (raman._G, raman._E2)):
        walk = sum(_flip_walk(index, a, src, dst) for a in range(n_atoms))
        assert np.array_equal(basis._flip_sum(src, dst), walk.toarray())
    for mode in (1, 2):
        assert np.array_equal(basis.annihilator(mode), _annihilator_walk(index, mode).toarray())
    c = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for atom in range(n_atoms):
        c = c + _flip_walk(index, atom, raman._H, raman._G)
    assert np.array_equal(basis.collective_flip(), (c / math.sqrt(n_atoms)).toarray())
