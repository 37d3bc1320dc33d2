"""State-vector evolution: Hamiltonian structure, trajectories, squeezing measures."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from mwsqueeze import closed_form as cf
from mwsqueeze import fock_dynamics as fdyn
from mwsqueeze import fixtures
from mwsqueeze import moments as mom
from mwsqueeze.errors import NumericalError, TruncationWarning
from mwsqueeze.fock import FockOperator, ModeLayout, at_top_level, vacuum_state
from mwsqueeze.params import CONSERVED_CHARGE, EffectiveCouplings

from fock_csr import assert_same_csr, conserved_number, csr, csr_annihilator, entries, ladder_hamiltonian
from fock_embed import embedded
from oracles import fidelity_with_target, target_state


def couplings(r, theta=1.0):
    return EffectiveCouplings.from_theta_r(theta, r)


def gauge_phase(psi):
    """``psi`` with its global phase rotated so that the largest-magnitude amplitude is real positive.

    Fock states and the closed-form table, whose amplitudes are real (the pair-creation factor signed as
    ``sin(theta t)``), are compared in this gauge; for real non-negative couplings they agree phase for phase.
    """
    k = int(np.argmax(np.abs(psi)))
    return psi / (psi[k] / abs(psi[k]))


_CORRUPT_TERMS = (("pair", 0, 2), ("pair", 1, 2))
_COMPLEX = EffectiveCouplings(0.6 * np.exp(0.3j), 1.2 * np.exp(-1.1j))
# sample-time grids every fock entry refuses: not 1-D, or not finite
_BAD_GRIDS = [0.0, [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf]]


def _expm_case(model, c):
    """Hamiltonian, its full-space matrix and layout of one ``test_matches_full_space_expm`` case."""
    if model == "degenerate":
        # both cavities of the model are the one layout cavity; the matrix is
        # the ladder products, independent of the library's entries
        lay = ModeLayout((12, 12))
        a, spin = (csr_annihilator(lay, m) for m in range(2))
        return FockOperator(c, lay, modes=(0, 0, 1)), ladder_hamiltonian(c, (a, a, spin)), lay
    if model == "real":
        lay = ModeLayout((10, 10, 8))
    else:
        lay = ModeLayout((7, 7, 5))
    if model == "complex":
        c = EffectiveCouplings(0.6 * np.exp(0.3j), 1.2 * np.exp(-1.1j))
    H = fdyn.build_effective_hamiltonian(c, lay)
    return H, csr(H), lay


def evolve_quiet(H, psi0, times, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return fdyn.evolve_state(H, psi0, times, **kw)


def evolve_quiet_vacuum(c, lay, times):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return fdyn.evolve_vacuum(c, lay, times)


class TestHamiltonian:
    def test_zero_couplings_zero_operator(self):
        H = fdyn.build_effective_hamiltonian((0.0, 0.0), ModeLayout((3, 3, 3)))
        assert csr(H).nnz == 0

    def test_pair_creation_element(self):
        c = couplings(2.0)
        lay = ModeLayout((4, 4, 4))
        H = fdyn.build_effective_hamiltonian(c, lay)
        elem = csr(H)[lay.index((1, 0, 1)), lay.index((0, 0, 0))]
        assert elem == pytest.approx(1j * complex(c.xi1))

    def test_hermitian(self):
        c = EffectiveCouplings(0.3 + 0.4j, 0.9 - 0.2j)
        H = csr(fdyn.build_effective_hamiltonian(c, ModeLayout((4, 5, 3))))
        assert abs(H - H.conj().T).max() < 1e-14

    def test_commutes_with_conserved_number(self):
        # every nonzero matrix element conserves n2 - n1 + n3, so the
        # commutator vanishes on the whole truncated space
        c = couplings(1.6)
        lay = ModeLayout((5, 5, 4))
        H = csr(fdyn.build_effective_hamiltonian(c, lay))
        N = conserved_number(lay)
        comm = H @ N - N @ H
        assert comm.nnz == 0 or abs(comm).max() < 1e-14


class TestEvolution:
    def test_zero_time_identity(self):
        c = couplings(2.0)
        lay = ModeLayout((6, 6, 6))
        H = fdyn.build_effective_hamiltonian(c, lay)
        traj = fdyn.evolve_state(H, vacuum_state(lay), [0.0])
        assert np.array_equal(next(embedded(traj, lay)), vacuum_state(lay))

    def test_occupations_match_closed_form(self):
        c = couplings(2.0)
        lay = ModeLayout((44, 44, 17))
        H = fdyn.build_effective_hamiltonian(c, lay)
        tpi = cf.t_pi(c)
        times = np.linspace(0.0, 2 * tpi, 9)
        traj = evolve_quiet(H, vacuum_state(lay), times)
        for t, occ in zip(traj.times, traj.occupations):
            ref = cf.occupations_closed_form(c, t)
            assert max(abs(a - b) for a, b in zip(occ, ref)) < 1e-6

    def test_t_pi_state(self):
        c = couplings(2.0)
        lay = ModeLayout((44, 44, 17))
        H = fdyn.build_effective_hamiltonian(c, lay)
        tpi = cf.t_pi(c)
        traj = evolve_quiet(H, vacuum_state(lay), [0.0, tpi])
        n1, n2, n3 = traj.occupations[-1]
        assert n3 <= 1e-8
        assert n1 == pytest.approx(16.0 / 9.0, abs=1e-4)
        assert n2 == pytest.approx(16.0 / 9.0, abs=1e-4)
        assert max(abs(n - 1) for n in traj.norms) < 1e-8

    def test_conserved_number_along_trajectory(self):
        c = couplings(2.0)
        lay = ModeLayout((16, 16, 10))
        H = fdyn.build_effective_hamiltonian(c, lay)
        N = conserved_number(lay)
        times = np.linspace(0.0, 2 * cf.t_pi(c), 21)
        traj = evolve_quiet(H, vacuum_state(lay), times)
        for psi in embedded(traj, lay):
            assert abs(np.vdot(psi, N @ psi).real) <= 1e-8
            assert abs(np.vdot(psi, N @ (N @ psi)).real) <= 1e-8

    @pytest.mark.parametrize("model,occupied", [
        pytest.param("real", [(0, 0, 0)], id="vacuum"),
        # n2 - n1 + n3 = 0 and 1: two invariant blocks
        pytest.param("real", [(0, 0, 0), (0, 1, 0)], id="two-blocks"),
        pytest.param("complex", [(0, 0, 0)], id="complex-couplings"),
        # |101> is one hop from |000>: the initial support holds both spin parities
        pytest.param("real-small", [(0, 0, 0), (1, 0, 1)], id="both-colours"),
        pytest.param("degenerate", [(0, 0)], id="degenerate"),
    ])
    def test_matches_full_space_expm(self, model, occupied):
        c = couplings(1.8)
        H, A, lay = _expm_case(model, c)
        psi0 = np.zeros(lay.dim, dtype=complex)
        for occ in occupied:
            psi0[lay.index(occ)] = 1.0
        psi0 /= np.linalg.norm(psi0)
        times = np.linspace(0.0, cf.t_pi(c), 5)
        traj = evolve_quiet(H, psi0, times)
        # exp(-i H t) psi0 on the same grid, on the whole composite space
        refs = expm_multiply(-1j * A, psi0, start=times[0], stop=times[-1], num=len(times), endpoint=True)
        for st, ref in zip(embedded(traj, lay), refs):
            assert np.max(np.abs(st - ref)) < 1e-9

    def test_diagonal_is_refused(self):
        # an exchange between the cavities does not move the spin: it joins |1, 0, 0>
        # to |0, 1, 0>, of one spin parity (from vacuum it reaches nothing)
        lay = ModeLayout((7, 7, 5))
        H = FockOperator(couplings(1.8), lay, terms=(("exchange", 0, 1),))
        psi0 = np.zeros(lay.dim, dtype=complex)
        psi0[lay.index((1, 0, 0))] = 1.0
        with pytest.raises(ValueError, match="spin"):
            fdyn.evolve_state(H, psi0, [0.0, 1.0])

    def test_a_zero_rate_adds_no_links(self):
        # with xi1 = 0 the exchange term alone leaves vacuum isolated; the pair
        # term's zero elements would join it to the whole charge lattice
        lay = ModeLayout((12, 10, 6))
        traj = fdyn.evolve_state(FockOperator((0.0, 1.3), lay), vacuum_state(lay), [0.0, 1.0])
        assert np.array_equal(traj.block, [0])
        assert np.array_equal(traj.states, [[1.0], [1.0]])

    def test_observables_match_the_full_layout_arrays(self):
        # occupations and leakage are read off the block's composite indices; the
        # full-layout occupation arrays and top-level mask give the same values
        c = couplings(2.0)
        times = np.linspace(0.0, cf.t_pi(c), 9)
        lay, lay2 = ModeLayout((6, 5, 4)), ModeLayout((6, 4))
        trajs = [
            (evolve_quiet(fdyn.build_effective_hamiltonian(c, lay), vacuum_state(lay), times), lay),
            (evolve_quiet_vacuum(c, lay, times), lay),
            (evolve_quiet(FockOperator(c, lay2, modes=(0, 0, 1)), vacuum_state(lay2), times), lay2),
        ]
        for traj, layout in trajs:
            occ = layout.occupation_arrays()
            top = at_top_level(occ, layout.dims)
            p = np.abs(np.array(list(embedded(traj, layout)))) ** 2
            assert p[:, top].sum(axis=1).max() > 1e-3
            assert np.max(np.abs(traj.occupations - np.column_stack([p @ o for o in occ]))) < 1e-14
            assert np.max(np.abs(traj.leakage - p[:, top].sum(axis=1))) < 1e-15

    def test_leakage_warning_on_tight_truncation(self):
        c = couplings(2.0)
        lay = ModeLayout((3, 3, 3))
        H = fdyn.build_effective_hamiltonian(c, lay)
        with pytest.warns(TruncationWarning):
            fdyn.evolve_state(H, vacuum_state(lay), [0.0, cf.t_pi(c)])

    def test_time_grid_validation(self):
        c = couplings(2.0)
        lay = ModeLayout((4, 4, 4))
        H = fdyn.build_effective_hamiltonian(c, lay)
        with pytest.raises(ValueError):
            fdyn.evolve_state(H, vacuum_state(lay), [0.5, 1.0])
        with pytest.raises(ValueError):
            fdyn.evolve_state(H, vacuum_state(lay), [0.0, 1.0, 1.0])
        for times in _BAD_GRIDS:
            with pytest.raises(ValueError, match="1-D grid of finite values"):
                fdyn.evolve_state(H, vacuum_state(lay), times)

    def test_state_length_must_match_layout(self):
        H = fdyn.build_effective_hamiltonian(couplings(2.0), ModeLayout((4, 4, 4)))
        with pytest.raises(ValueError, match="layout dimension 64"):
            fdyn.evolve_state(H, vacuum_state(ModeLayout((4, 4, 3))), [0.0, 1.0])

    def test_zeta12_time_reversal_symmetry(self):
        c = couplings(2.0)
        lay = ModeLayout((44, 44, 17))
        H = fdyn.build_effective_hamiltonian(c, lay)
        tpi = cf.t_pi(c)
        offsets = np.array([0.2, 0.45, 0.7]) * tpi
        times = sorted({0.0, *offsets, *(2 * tpi - offsets)})
        traj = evolve_quiet(H, vacuum_state(lay), times)
        lookup = dict(zip(traj.times, traj.zeta12))
        for s in offsets:
            assert lookup[s] == pytest.approx(lookup[2 * tpi - s], abs=1e-6)

    def test_amplitude_agreement_with_closed_form(self):
        # elementwise 1e-6 needs boundary mass ~1e-12: single boundary
        # amplitudes scale as the square root of the truncated tail
        c = couplings(3.0)
        lay = ModeLayout((28, 28, 13))
        H = fdyn.build_effective_hamiltonian(c, lay)
        tpi = cf.t_pi(c)
        times = [0.0, 0.4 * tpi, 1.3 * tpi]
        traj = evolve_quiet(H, vacuum_state(lay), times)
        for t, st in zip(traj.times, embedded(traj, lay)):
            ref = gauge_phase(fdyn.analytic_state(c, t, lay, tail_tol=1e-9))
            got = gauge_phase(st)
            assert np.max(np.abs(ref - got)) < 1e-6

    def test_memory_scales_with_the_reachable_block(self):
        # 2001 full-layout states of (24, 24, 12) would hold 221 MB; the
        # reachable block from vacuum has 222 of the 6912 basis states
        c = couplings(3.0)
        lay = ModeLayout((24, 24, 12))
        H = fdyn.build_effective_hamiltonian(c, lay)
        times = np.linspace(0.0, 2 * cf.t_pi(c), 2001)
        tracemalloc.start()
        try:
            traj = evolve_quiet(H, vacuum_state(lay), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 2001
        assert peak < 64e6


class TestRelativeNumberSqueezing:
    def test_vacuum_convention(self):
        lay = ModeLayout((5, 5, 5))
        assert fdyn.relative_number_squeezing(vacuum_state(lay), lay) == 1.0

    def test_target_state_is_perfectly_correlated(self):
        lay = ModeLayout((60, 60, 2))
        st = target_state(lay, 2.0)
        assert fdyn.relative_number_squeezing(st, lay) <= 1e-10

    def test_independent_poissonians(self):
        # sigma^2(n1 - n2) = mu1 + mu2 for independent Poisson marginals
        lay = ModeLayout((30, 30, 2))
        mu1, mu2 = 1.3, 0.7
        amps = np.zeros(lay.dim, dtype=complex)
        for i in range(30):
            for j in range(30):
                amps[lay.index((i, j, 0))] = math.exp(-(mu1 + mu2) / 2) * math.sqrt(
                    mu1**i / math.factorial(i) * mu2**j / math.factorial(j)
                )
        st = amps / np.linalg.norm(amps)
        assert fdyn.relative_number_squeezing(st, lay) == pytest.approx(1.0, abs=1e-8)


class TestFidelity:
    def test_self_overlap(self):
        lay = ModeLayout((40, 40, 3))
        st = target_state(lay, 2.0)
        assert fidelity_with_target(st, lay, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_overlap_with_target(self):
        lay = ModeLayout((40, 40, 3))
        f = fidelity_with_target(vacuum_state(lay), lay, 2.0)
        assert f == pytest.approx(0.36, abs=2e-6)


class TestDegenerateMode:
    def test_beam_splitter_only_preserves_vacuum(self):
        var = fdyn.degenerate_mode_evolve((0.0, 1.0), ModeLayout((8, 8)), [0.0, 2.0])
        assert var[-1] == pytest.approx(0.5, abs=1e-10)

    def test_zero_time(self):
        c = couplings(2.0)
        var = fdyn.degenerate_mode_evolve(c, ModeLayout((8, 8)), [0.0])
        assert var[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r,dims,half", [
        (2.0, (56, 56), fixtures.DEGENERATE_MIN_VAR_AT_HALF_T_PI),
        (3.0, (40, 40), 0.5 * (3.0 - 1.0) / (3.0 + 1.0)),
    ], ids=["r2", "r3"])
    def test_r2_fixtures(self, r, dims, half):
        # the quadrature sectors both rotate at rate theta, so the state
        # returns to vacuum at pi/theta; the squeezing extremum sits at the
        # half period with Var = (1/2)(r-1)/(r+1), hit exactly with no phase grid
        c = couplings(r)
        tpi = cf.t_pi(c)
        var = fdyn.degenerate_mode_evolve(c, ModeLayout(dims), [0.0, tpi / 2, tpi])
        assert var[1] == pytest.approx(half, abs=1e-9)
        assert var[2] == pytest.approx(fixtures.DEGENERATE_MIN_VAR_AT_T_PI, abs=1e-9)

    def test_matches_per_state_loop(self):
        # reference: <a a> of each embedded full-layout state by two sparse matvecs
        c = couplings(2.0)
        lay = ModeLayout((14, 14))
        times = np.linspace(0.0, cf.t_pi(c), 7)
        a = csr_annihilator(lay, 0)
        traj = evolve_quiet(FockOperator(c, lay, modes=(0, 0, 1)), vacuum_state(lay), times)
        ref = [0.5 + n - abs(np.vdot(psi, a @ (a @ psi))) for n, psi in zip(traj.occupations[:, 0], embedded(traj, lay))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = fdyn.degenerate_mode_evolve(c, lay, times)
        assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("dims,c", [
        ((12, 12), couplings(2.0)),
        ((56, 56), couplings(2.0)),
        ((12, 12), (0.4, 0.0)),
    ], ids=["12", "56", "pair-chain"])
    def test_pair_moment_matches_the_composite_product(self, dims, c):
        # reference: <a a> from the composite product a @ a, restricted to the block;
        # with xi2 = 0 the block is the chain |n, n>, which holds no a^2 image
        lay = ModeLayout(dims)
        times = np.linspace(0.0, 3.0, 9)
        traj = evolve_quiet(FockOperator(c, lay, modes=(0, 0, 1)), vacuum_state(lay), times)
        block, amps = traj.block, traj.states
        a = csr_annihilator(lay, 0)
        aa = np.einsum("ij,ji->i", amps.conj(), (a @ a)[block][:, block] @ amps.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = fdyn.degenerate_mode_evolve(c, lay, times)
        assert np.max(np.abs(got - (0.5 + traj.occupations[:, 0] - np.abs(aa)))) <= 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fdyn.degenerate_mode_evolve(couplings(2.0), ModeLayout((8, 8)), [0.0, -1.0])
        for times in _BAD_GRIDS:
            with pytest.raises(ValueError, match="1-D grid of finite values"):
                fdyn.degenerate_mode_evolve(couplings(2.0), ModeLayout((6, 6)), times)

    def test_three_mode_layout_rejected(self):
        with pytest.raises(ValueError, match="two-mode"):
            fdyn.degenerate_mode_evolve(couplings(2.0), ModeLayout((4, 4, 4)), [0.0, 0.1])


class TestBoxBuilder:
    @pytest.mark.parametrize("dims,c", [
        ((17, 17, 10), couplings(4.0)),
        ((24, 24, 12), couplings(3.0)),
        ((16, 16, 10), couplings(2.0)),
        ((4, 5, 3), _COMPLEX),
        ((12, 10, 6), _COMPLEX),
        ((5, 5, 4), (0.0, 1.3)),
        ((3, 3, 3), (0.0, 0.0)),
    ], ids=["r4-default", "r3-default", "validate-r2", "complex-small", "complex", "raw-pair", "zero-rates"])
    def test_matches_ladder_products(self, dims, c):
        lay = ModeLayout(dims)
        ref = ladder_hamiltonian(c, [csr_annihilator(lay, m) for m in range(3)])
        op = fdyn.build_effective_hamiltonian(c, lay)
        # a zero rate adds no entries, so no element is an explicit zero
        assert np.all(entries(op)[2] != 0)
        H = csr(op)
        assert_same_csr(H, ref)
        if c == (0.0, 0.0):
            assert H.nnz == 0

    def test_corrupt_terms_match_ladder_products(self):
        c = couplings(2.0)
        lay = ModeLayout((16, 16, 10))
        ref = ladder_hamiltonian(c, [csr_annihilator(lay, m) for m in range(3)], _CORRUPT_TERMS)
        assert_same_csr(csr(FockOperator(c, lay, terms=_CORRUPT_TERMS)), ref)

    @pytest.mark.parametrize("dims", [(12, 12), (56, 56)])
    def test_degenerate_map_matches_ladder_products(self, dims):
        c = couplings(2.0)
        lay = ModeLayout(dims)
        a, spin = (csr_annihilator(lay, m) for m in range(2))
        assert_same_csr(csr(FockOperator(c, lay, modes=(0, 0, 1))), ladder_hamiltonian(c, (a, a, spin)))

    def test_refuses_terms_that_leave_the_lattice(self):
        lay = ModeLayout((8, 8, 5))
        block = fdyn.charge_lattice(lay)[0]
        with pytest.raises(ValueError, match="leaves the given states"):
            fdyn._box_entries(FockOperator(couplings(2.0), lay, terms=_CORRUPT_TERMS), block)

    def test_refuses_a_term_on_one_mode(self):
        # the exchange term (1, 2) lands on layout mode 1 twice
        lay = ModeLayout((6, 6))
        with pytest.raises(ValueError, match="one mode"):
            fdyn._box_entries(FockOperator(couplings(2.0), lay, modes=(0, 1, 1)), np.arange(lay.dim))


class TestChargeLattice:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 3, 5), (5, 9, 4), (9, 5, 7), (6, 6, 11), (3, 8, 2)])
    def test_lattice_is_the_zero_charge_states(self, dims):
        lay = ModeLayout(dims)
        charge = np.dot(CONSERVED_CHARGE, lay.occupation_arrays())
        index, m, n = fdyn.charge_lattice(lay)
        assert np.array_equal(index, np.flatnonzero(charge == 0))
        assert np.array_equal(index, [lay.index((a + b, b, a)) for a, b in zip(m, n)])
        assert fdyn.charge_lattice_size(dims) == len(index)

    @pytest.mark.parametrize("dims,size", [
        ((300, 300, 3), 897),
        # 200 000 composite states, 2 310 of them on the lattice
        ((80, 50, 50), 2310),
        # the default cutoffs at r = 1.5, 1.4 and 1.1
        ((145, 145, 30), 3915),
        ((209, 209, 36), 6894),
        ((2540, 2540, 122), 302499),
    ])
    def test_size_in_closed_form(self, dims, size):
        assert fdyn.charge_lattice_size(dims) == size
        assert fdyn.charge_lattice_size(dims) == sum(min(dims[1], dims[0] - m) for m in range(min(dims[2], dims[0])))

    @pytest.mark.parametrize("dims,c", [
        ((17, 17, 10), couplings(4.0)),
        ((24, 24, 12), couplings(3.0)),
        ((24, 24, 11), couplings(3.0)),
        ((5, 9, 4), couplings(2.0)),
        ((12, 10, 6), _COMPLEX),
    ], ids=["r4-default", "r3-default", "validate-r3", "asymmetric", "complex-couplings"])
    def test_lattice_path_matches_the_walk(self, dims, c):
        lay = ModeLayout(dims)
        H = fdyn.build_effective_hamiltonian(c, lay)
        walk_block = fdyn._reachable(*entries(H)[:2], vacuum_state(lay))
        block, m, n = fdyn.charge_lattice(lay)
        odd = m % 2 == 1
        assert np.array_equal(block, walk_block)
        assert np.array_equal(odd, walk_block % dims[-1] % 2 == 1)
        # the builder's elements on the lattice, against the ladder products' restriction
        rows, cols, vals = fdyn._box_entries(H, block)
        on_lattice = np.zeros((len(block),) * 2, dtype=complex)
        on_lattice[rows, cols] = vals
        B = on_lattice[np.ix_(~odd, odd)]
        ref_H = ladder_hamiltonian(c, [csr_annihilator(lay, k) for k in range(3)])
        assert np.array_equal(B, ref_H[block[~odd]][:, block[odd]].toarray())

        times = np.linspace(0.0, 2 * cf.t_pi(c), 41)
        got = evolve_quiet_vacuum(c, lay, times)
        ref = evolve_quiet(H, vacuum_state(lay), times)
        for field in ("occupations", "zeta12", "leakage", "norms"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert np.array_equal(got.block, ref.block)

    @pytest.mark.parametrize("pair", [(0.0, 1.3), (0.9, 0.0)], ids=["xi1-zero", "xi2-zero"])
    def test_one_zero_rate(self, pair):
        # the walk drops the zero rate's links, the lattice keeps its states:
        # those stay at rounding level and the observables agree to rounding
        lay = ModeLayout((12, 10, 6))
        H = fdyn.build_effective_hamiltonian(pair, lay)
        walk_block = fdyn._reachable(*entries(H)[:2], vacuum_state(lay))
        times = np.linspace(0.0, 3.0, 41)
        got = evolve_quiet_vacuum(pair, lay, times)
        ref = evolve_quiet(H, vacuum_state(lay), times)
        assert len(walk_block) < len(got.block)
        _, m, _ = fdyn.charge_lattice(lay)
        assert np.array_equal(m % 2, got.block % lay.dims[-1] % 2)
        off = ~np.isin(got.block, walk_block)
        assert np.abs(got.states[:, off]).max() < 1e-14
        for field in ("occupations", "zeta12", "leakage", "norms"):
            assert np.max(np.abs(getattr(got, field) - getattr(ref, field))) < 1e-13, field

    def test_both_rates_zero_stay_in_vacuum_exactly(self):
        lay = ModeLayout((4, 4, 4))
        traj = fdyn.evolve_vacuum(None, lay, np.linspace(0.0, 1e-4, 21))
        assert np.array_equal(traj.states[:, 0], np.ones(21))
        assert not traj.states[:, 1:].any()
        assert not traj.occupations.any() and not traj.leakage.any()
        assert np.all(traj.zeta12 == 1.0) and np.all(traj.norms == 1.0)

    def test_both_rates_zero_stay_in_vacuum_exactly_on_the_walk(self):
        # no entries at all: the block is vacuum alone
        lay = ModeLayout((4, 4, 4))
        H = fdyn.build_effective_hamiltonian(None, lay)
        traj = fdyn.evolve_state(H, vacuum_state(lay), np.linspace(0.0, 1e-4, 21))
        assert np.array_equal(traj.block, [0])
        assert np.array_equal(traj.states, np.ones((21, 1)))
        assert not traj.occupations.any() and not traj.leakage.any()
        assert np.all(traj.zeta12 == 1.0) and np.all(traj.norms == 1.0)

    def test_leakage_warning_and_time_grid(self):
        c = couplings(2.0)
        with pytest.warns(TruncationWarning):
            fdyn.evolve_vacuum(c, ModeLayout((3, 3, 3)), [0.0, cf.t_pi(c)])
        with pytest.raises(ValueError):
            fdyn.evolve_vacuum(c, ModeLayout((4, 4, 4)), [0.5, 1.0])
        with pytest.raises(ValueError, match="three-mode"):
            fdyn.evolve_vacuum(c, ModeLayout((4, 4)), [0.0, 1.0])
        for times in _BAD_GRIDS:
            with pytest.raises(ValueError, match="1-D grid of finite values"):
                fdyn.evolve_vacuum(c, ModeLayout((4, 4, 4)), times)

    def test_overflowing_phase_fails_the_norm_budget(self):
        # t s overflows to inf, so cos and sin give NaN amplitudes and a NaN drift:
        # one NumericalError, and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="norm drifted by nan"):
                fdyn.evolve_vacuum((1e150, 1.2e150), ModeLayout((4, 4, 4)), [0.0, 1e300])


def _analytic_state_loop(c, t, lay, tail_tol):
    """Reference: the per-amplitude loop over ``ModeLayout.index``."""
    d1, d2, d3 = lay.dims
    table = cf.evolved_amplitudes(c, t, m_max=d3 - 1, n_max=d2 - 1, tail_tol=tail_tol)
    psi = np.zeros(lay.dim, dtype=complex)
    for m in range(d3):
        for n in range(d2):
            if m + n < d1:
                psi[lay.index((m + n, n, m))] = table[m, n]
    return psi / np.linalg.norm(psi)


class TestLatticeStates:
    @pytest.mark.parametrize("dims", [(64, 64, 8), (5, 9, 4), (9, 5, 7), (20, 12, 30)])
    def test_analytic_state_matches_loop(self, dims):
        c = couplings(3.0)
        lay = ModeLayout(dims)
        for frac in (0.0, 0.3, 1.0, 1.7):
            t = frac * cf.t_pi(c)
            assert np.array_equal(fdyn.analytic_state(c, t, lay, tail_tol=1.0),
                                  _analytic_state_loop(c, t, lay, tail_tol=1.0))


@pytest.mark.parametrize("refused", [
    lambda lay: fdyn.build_effective_hamiltonian(couplings(2.0), lay),
    lambda lay: fdyn.relative_number_squeezing(vacuum_state(lay), lay),
    lambda lay: fdyn.analytic_state(couplings(2.0), 0.1, lay),
    lambda lay: mom.moments_from_fock_state(vacuum_state(lay), lay),
], ids=["hamiltonian", "squeezing", "analytic", "moments"])
def test_two_mode_layout_rejected(refused):
    with pytest.raises(ValueError, match="three-mode layout"):
        refused(ModeLayout((4, 4)))
