"""Second-moment propagation, the Wick expansion, and route equivalence."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mwsqueeze import closed_form as cf
from mwsqueeze import fock_dynamics as fdyn
from mwsqueeze import moments as mom
from mwsqueeze.errors import NumericalError, StabilityError, TruncationWarning
from mwsqueeze.fock import ModeLayout, vacuum_state
from mwsqueeze.params import DecayRates, EffectiveCouplings

from fock_csr import csr, csr_annihilator


def couplings(r, theta=1.0):
    return EffectiveCouplings.from_theta_r(theta, r)


def tmss_moments(r):
    """Moment matrix of the ideal two-mode squeezed target (spin in vacuum)."""
    eps = cf.squeezing_parameter(r)
    nbar = math.sinh(eps) ** 2
    sc = math.sinh(eps) * math.cosh(eps)
    V = np.zeros((6, 6), dtype=complex)
    V[0, 0] = V[2, 2] = 1 + nbar
    V[1, 1] = V[3, 3] = nbar
    V[4, 4] = 1.0
    V[0, 3] = V[2, 1] = sc  # <a1 a2> and <a2 a1>
    V[3, 0] = V[1, 2] = sc  # conjugates (real here)
    return V


class TestDrift:
    def test_zero_case(self):
        assert np.max(np.abs(mom.drift_matrix(None))) == 0.0
        assert np.max(np.abs(mom.drift_matrix((0.0, 0.0), DecayRates()))) == 0.0

    def test_closed_eigenvalues(self):
        c = couplings(1.7)
        ev = np.linalg.eigvals(mom.drift_matrix(c))
        ev = ev[np.argsort(ev.imag)]
        assert np.allclose(ev.real, 0.0, atol=1e-12)
        expect = np.array([-c.theta, -c.theta, 0.0, 0.0, c.theta, c.theta])
        assert np.allclose(ev.imag, expect, atol=1e-12)

    def test_damped_grid_is_stable(self):
        for r in (1.05, 1.5, 3.0):
            c = couplings(r)
            for ratio in (0.1, 1.0, 10.0):
                M = mom.drift_matrix(c, DecayRates.cavities(c.theta * ratio))
                assert np.linalg.eigvals(M).real.max() < 1e-12

    @pytest.mark.parametrize("xi", [(0.3 + 0.4j, 0.9 - 0.2j), (1.1 - 0.7j, -0.4 + 0.5j)])
    def test_matches_fock_heisenberg_equations(self, xi):
        # -i [v_j, H] psi = sum_l M[j, l] v_l psi for v = (a1, a1', a2, a2', c, c'),
        # on a state with no weight within one level of any truncation top
        lay = ModeLayout((6, 6, 6))
        H = csr(fdyn.build_effective_hamiltonian(xi, lay))
        M = mom.drift_matrix(xi)
        v = []
        for m in range(3):
            a = csr_annihilator(lay, m)
            v.extend([a, a.conj().T])
        rng = np.random.default_rng(5)
        low = np.all([o <= 3 for o in lay.occupation_arrays()], axis=0)
        psi = np.where(low, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim), 0.0)
        psi /= np.linalg.norm(psi)
        for j in range(6):
            lhs = -1j * (v[j] @ (H @ psi) - H @ (v[j] @ psi))
            rhs = sum(M[j, l] * (v[l] @ psi) for l in range(6))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEvolveMoments:
    def test_zero_drift_constant(self):
        V0 = mom.vacuum_moments()
        out = mom.evolve_moments(np.zeros((6, 6)), V0, [0.0, 1.0, 5.0])
        for V in out:
            assert np.array_equal(V, V0)

    def test_closed_occupations_match_formulas(self):
        c = couplings(2.0)
        M = mom.drift_matrix(c)
        x1, x2, th = abs(c.xi1), abs(c.xi2), c.theta
        times = np.linspace(0.0, 3 * cf.t_pi(c), 25)
        for t, V in zip(times, mom.evolve_moments(M, mom.vacuum_moments(), times)):
            n1, n2, n3 = mom.occupations_from_moments(V)
            assert n3 == pytest.approx((x1 / th) ** 2 * math.sin(th * t) ** 2, abs=1e-10)
            assert n2 == pytest.approx(
                (x1 * x2 / th**2) ** 2 * (math.cos(th * t) - 1) ** 2, abs=1e-10
            )
            assert n1 == pytest.approx(n2 + n3, abs=1e-10)

    def test_negative_time_is_refused(self):
        with pytest.raises(ValueError, match="sample times must not be negative"):
            mom.evolve_moments(mom.drift_matrix(couplings(2.0)), mom.vacuum_moments(), [0.0, -1e-3])

    def test_hermiticity_psd_and_commutators_along_trajectory(self):
        c = couplings(1.2)
        M = mom.drift_matrix(c)
        times = np.linspace(0.0, 2 * cf.t_pi(c), 15)
        for V in mom.evolve_moments(M, mom.vacuum_moments(), times):
            _validate_stack(V[None], 1e-8 * max(1.0, float(np.max(np.abs(V)))))
            for offset in mom.commutator_offsets(V):
                assert offset == pytest.approx(1.0, abs=1e-8)

    def test_open_case_relaxes_to_steady_state(self):
        c = couplings(1.3)
        d = DecayRates.cavities(2.0 * c.theta)
        M = mom.drift_matrix(c, d)
        D = mom.diffusion_matrix(d)
        Vss = mom.steady_state_moments(M, D)
        resid = M @ Vss + Vss @ M.conj().T + D
        assert np.max(np.abs(resid)) < 1e-12
        late = mom.evolve_moments(M, mom.vacuum_moments(), [60.0 / c.theta], diffusion=D)[0]
        assert np.max(np.abs(late - Vss)) < 1e-8

    @pytest.mark.parametrize("damped,diffusion", [(False, False), (True, True), (True, False)],
                             ids=["closed", "damped", "damped-no-diffusion"])
    def test_matches_matrix_exponential(self, damped, diffusion):
        # V(t) = F V0 F^dag + int_0^t e^{Ms} D e^{M^dag s} ds with F = expm(M t);
        # the integral is G F^dag, G the upper-right block of
        # expm([[M, D], [0, -M^dag]] t) (Van Loan).  A damped drift fails
        # M^3 = -theta^2 M, so without diffusion it still takes the general path.
        c = couplings(1.5)
        d = DecayRates(kappa1=0.8, kappa2=1.2, gamma_s=0.3) if damped else DecayRates()
        M = mom.drift_matrix(c, d)
        D = mom.diffusion_matrix(d) if diffusion else np.zeros((6, 6))
        block = np.block([[M, D], [np.zeros((6, 6)), -M.conj().T]])
        times = [0.3 * cf.t_pi(c), cf.t_pi(c), 2.5 * cf.t_pi(c)]
        V0 = mom.vacuum_moments()
        out = mom.evolve_moments(M, V0, times, diffusion=D if diffusion else None)
        for t, V in zip(times, out):
            E = sla.expm(block * t)
            F, G = E[:6, :6], E[:6, 6:]
            expect = F @ V0 @ F.conj().T + G @ F.conj().T
            assert np.max(np.abs(V - expect)) <= 1e-10 * np.max(np.abs(expect))

    @pytest.mark.parametrize("xi", [(2.0, 1.0), (1.0, 1.0)], ids=["hyperbolic", "nilpotent"])
    def test_closed_raw_pair_matches_matrix_exponential(self, xi):
        # |xi2| <= |xi1| gives theta^2 <= 0: the closed propagator's sinh and t, t^2/2 cases
        M = mom.drift_matrix(xi)
        V0 = mom.vacuum_moments()
        times = [0.0, 0.7, 2.3]
        for t, V in zip(times, mom.evolve_moments(M, V0, times)):
            F = sla.expm(M * t)
            expect = F @ V0 @ F.conj().T
            assert np.max(np.abs(V - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_steady_state_requires_stability(self):
        c = couplings(1.3)
        M = mom.drift_matrix(c)  # closed: marginal
        with pytest.raises(StabilityError):
            mom.steady_state_moments(M, np.zeros((6, 6)))

    def test_closed_sample_keeps_its_bits_in_any_stack(self):
        c = couplings(1.001)
        M = mom.drift_matrix(c)
        V0 = tmss_moments(1.3)
        times = np.linspace(0.0, 2 * cf.t_pi(c), 2 * mom._BLOCK + 7)
        stack = mom.evolve_moments(M, V0, times)
        for k in (0, 1, mom._BLOCK - 1, mom._BLOCK, len(times) - 1):
            alone = mom.evolve_moments(M, V0, times[k:k + 1])[0]
            assert alone.tobytes() == stack[k].tobytes()
        shifted = mom.evolve_moments(M, V0, times[3:])
        assert shifted.tobytes() == stack[3:].tobytes()

    @pytest.mark.parametrize("case", ["sector-split", "whole-matrix", "damped"])
    def test_stack_is_the_blocks_copied_in_order(self, case):
        # the yielded buffer is reused, so each block is copied before the next one is drawn
        M, V0, D = mom.drift_matrix(couplings(1.5)), mom.vacuum_moments(), None
        if case == "whole-matrix":  # a cross-sector V0 takes the whole 6 x 6 matrix
            V0[0, 0], V0[1, 1], V0[0, 1], V0[1, 0] = 2.0, 1.0, 0.5, 0.5
        if case == "damped":
            d = DecayRates(kappa1=0.8, kappa2=1.2, gamma_s=0.3)
            M, D = mom.drift_matrix(couplings(1.5), d), mom.diffusion_matrix(d)
        if case != "damped":
            assert mom._putzer(M, V0)[0].shape == ((6, 1) if case == "whole-matrix" else (3, 2))
        times = np.linspace(0.0, 20.0, 2 * mom._BLOCK + 3)
        blocks = [(lo, V.copy()) for lo, V in mom.moment_blocks(M, V0, times, D)]
        assert [(lo, len(V)) for lo, V in blocks] == [(0, mom._BLOCK), (mom._BLOCK, mom._BLOCK),
                                                       (2 * mom._BLOCK, 3)]
        stack = mom.evolve_moments(M, V0, times, D)
        assert np.concatenate([V for _, V in blocks]).tobytes() == stack.tobytes()

    def test_non_finite_initial_moments_fail(self):
        V0 = mom.vacuum_moments()
        V0[1, 1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            mom.evolve_moments(mom.drift_matrix(couplings(1.5)), V0, [0.0, 1.0])


    def test_damped_uncoupled_matches_van_loan_with_spin_untouched(self):
        # the spin is neither coupled nor damped, so the fixed point is solved on
        # the cavities alone and the spin moments stay as they started
        d = DecayRates.cavities(0.5)
        M = mom.drift_matrix(None, d)
        D = mom.diffusion_matrix(d)
        V0 = tmss_moments(1.3)
        V0[4, 4], V0[5, 5] = 3.0, 2.0
        block = np.block([[M, D], [np.zeros((6, 6)), -M.conj().T]])
        times = [0.4, 3.0, 17.0]
        for t, V in zip(times, mom.evolve_moments(M, V0, times, diffusion=D)):
            E = sla.expm(block * t)
            F, G = E[:6, :6], E[:6, 6:]
            expect = F @ V0 @ F.conj().T + G @ F.conj().T
            assert np.max(np.abs(V - expect)) <= 1e-10 * np.max(np.abs(expect))
            assert V[4, 4] == pytest.approx(3.0, abs=1e-12) and V[5, 5] == pytest.approx(2.0, abs=1e-12)

    def test_closed_drift_with_diffusion_has_no_fixed_point(self):
        M = mom.drift_matrix(couplings(1.5))
        D = mom.diffusion_matrix(DecayRates(1.0, 1.0, 1.0))
        with pytest.raises(StabilityError):
            mom.evolve_moments(M, mom.vacuum_moments(), [0.0, 1.0], diffusion=D)

    def test_unstable_raw_pair_with_diffusion_names_its_eigenvalue(self):
        d = DecayRates.cavities(0.2)
        M = mom.drift_matrix((1.0, 0.3), d)
        with pytest.raises(StabilityError, match=r"eigenvalue 0\.905"):
            mom.evolve_moments(M, mom.vacuum_moments(), [0.0, 1.0], diffusion=mom.diffusion_matrix(d))


def _validate_stack(V, tol):
    """``moments._validate_blocks`` on each whole matrix of a ``(n, 6, 6)`` stack, Hermiticity at every entry."""
    mom._validate_blocks(np.moveaxis(np.asarray(V), 0, -1)[:, :, None], tol, *mom._WHOLE[1])


def _pair_block(x):
    """Vacuum moments with ``V[0, 3] = V[3, 0] = x``: the sector ``[[1, x], [x, 0]]``, min eigenvalue ``(1 - sqrt(1 + 4x^2)) / 2``."""
    V = mom.vacuum_moments()
    V[0, 3] = V[3, 0] = x
    return V


class TestValidateStack:
    """``_validate_stack``'s failure paths: the first bad sample raises, with its figure."""

    TOL = 1e-8

    def test_negative_sector_eigenvalue(self):
        V = np.array([mom.vacuum_moments(), _pair_block(1.5), mom.vacuum_moments()])
        lo = (1.0 - math.sqrt(10.0)) / 2.0
        with pytest.raises(NumericalError, match=re.escape(f"not PSD: min eigenvalue {lo:.3e}")):
            _validate_stack(V, self.TOL)

    def test_first_bad_sample_is_reported(self):
        V = np.array([mom.vacuum_moments(), _pair_block(0.5), _pair_block(1.5)])
        lo = (1.0 - math.sqrt(2.0)) / 2.0
        with pytest.raises(NumericalError, match=re.escape(f"min eigenvalue {lo:.3e}")):
            _validate_stack(V, self.TOL)

    def test_non_hermitian(self):
        V = np.array([mom.vacuum_moments()] * 3)
        V[2, 0, 3] = 0.25
        with pytest.raises(NumericalError, match=r"Hermiticity violated by 2\.500e-01"):
            _validate_stack(V, self.TOL)

    def test_off_sector_entry_takes_the_full_matrix(self):
        # V[0, 1] joins the two charge sectors; per sector the matrix is PSD
        V = np.array([mom.vacuum_moments()] * 3)
        V[1, 0, 1] = V[1, 1, 0] = 1.5
        lo = (1.0 - math.sqrt(10.0)) / 2.0
        with pytest.raises(NumericalError, match=re.escape(f"not PSD: min eigenvalue {lo:.3e}")):
            _validate_stack(V, self.TOL)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite(self, value):
        V = np.array([mom.vacuum_moments()] * 3)
        V[1, 2, 2] = value
        with pytest.raises(NumericalError, match="non-finite"):
            _validate_stack(V, self.TOL)

    def test_within_tolerance_passes(self):
        V = np.array([mom.vacuum_moments()] * 3)
        V[1, 1, 1] = -0.5 * self.TOL  # sector eigenvalue -tol/2
        _validate_stack(V, self.TOL)
        _validate_stack(V, np.full(3, self.TOL))

    def test_tolerance_is_not_scaled_twice(self):
        # tol already carries max|V| (1e-8 * 1e8 = 1): an eigenvalue of -2 fails
        V = mom.vacuum_moments()
        V[0, 0] = 1e8
        V[1, 1] = -2.0
        with pytest.raises(NumericalError, match=re.escape("min eigenvalue -2.000e+00")):
            _validate_stack(V[None], 1e-8 * np.abs(V).max())


class TestClosedPath:
    """``evolve_moments`` on a closed drift: the failure paths and the bits of every entry."""

    M = mom.drift_matrix(couplings(1.5))
    PAIR_MIN = (1.0 - math.sqrt(10.0)) / 2.0  # min eigenvalue of [[1, 1.5], [1.5, 0]]

    def test_non_hermitian_initial_moments(self):
        V0 = mom.vacuum_moments()
        V0[3, 0] = V0[0, 3] + 1e-3
        with pytest.raises(NumericalError, match=r"Hermiticity violated by 1\.000e-03"):
            mom.evolve_moments(self.M, V0, [0.0, 1.0])

    def test_negative_sector_eigenvalue(self):
        with pytest.raises(NumericalError, match=re.escape(f"not PSD: min eigenvalue {self.PAIR_MIN:.3e}")):
            mom.evolve_moments(self.M, _pair_block(1.5), [0.0, 1.0])

    def test_cross_sector_initial_moments_take_the_whole_matrix(self):
        # V0[0, 1] joins the two charge sectors, and per sector V0 is the vacuum; at
        # r = 3 the six Putzer matrices are Hermitian bit for bit, so only the
        # joining entry keeps the sector blocks from being checked alone
        V0 = mom.vacuum_moments()
        V0[0, 1] = V0[1, 0] = 1.5
        with pytest.raises(NumericalError, match=re.escape(f"not PSD: min eigenvalue {self.PAIR_MIN:.3e}")):
            mom.evolve_moments(mom.drift_matrix(couplings(3.0)), V0, [0.0, 1.0])

    @pytest.mark.parametrize("r", [1.001, 4.0])
    def test_stack_has_the_bits_of_the_whole_quadratic(self, r):
        # each sample against C0 + a C1 + b C2 + a^2 C3 + ab C4 + b^2 C5 on all 36 entries
        c = couplings(r, theta=2 * math.pi * 1e4)
        M, V0 = mom.drift_matrix(c), mom.vacuum_moments()
        M2 = M @ M
        Md, M2d = M.conj().T, M2.conj().T
        C = np.array([V0, M @ V0 + V0 @ Md, M2 @ V0 + V0 @ M2d, M @ V0 @ Md,
                      M @ V0 @ M2d + M2 @ V0 @ Md, M2 @ V0 @ M2d]).view(float)
        w = np.sqrt(complex(-M2.trace().real / 4.0))
        times = np.linspace(0.0, 2 * cf.t_pi(c), 2 * mom._BLOCK + 7)
        a_all = np.real(np.sin(w * times) / w)
        b_all = np.real(2.0 * (np.sin(w * times / 2.0) / w) ** 2)
        for a, b, V in zip(a_all, b_all, mom.evolve_moments(M, V0, times)):
            ref = C[0] + a * C[1] + b * C[2] + (a * a) * C[3] + (a * b) * C[4] + (b * b) * C[5]
            assert V.tobytes() == ref.view(complex).tobytes()


def test_abs2_has_the_bits_of_libm():
    rng = np.random.default_rng(11)
    z = 10.0 ** rng.uniform(-150.0, 150.0, 20_000) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 20_000))
    assert mom._abs2(z).tolist() == [math.pow(abs(x), 2.0) for x in z.tolist()]


class TestOccupationsAndZeta:
    def test_vacuum(self):
        V = mom.vacuum_moments()
        assert tuple(mom.occupations_from_moments(V)) == (0.0, 0.0, 0.0)
        assert mom.zeta12_from_moments(V) == 1.0

    def test_negative_occupation_is_refused(self):
        # -1e-10 is the rounding allowance; below it the matrix is not a state
        V = mom.vacuum_moments()
        V[3, 3] = -1e-10
        assert mom.occupations_from_moments(V)[1] == -1e-10
        V[3, 3] = -2e-10
        with pytest.raises(NumericalError, match=r"negative occupation -2\.000e-10"):
            mom.occupations_from_moments(V)

    def test_target_state_photon_number(self):
        V = tmss_moments(1.1)
        n1, n2, n3 = mom.occupations_from_moments(V)
        assert n1 == pytest.approx(109.75, abs=0.01)
        assert n2 == pytest.approx(n1, rel=1e-12)
        assert n3 == pytest.approx(0.0, abs=1e-12)

    def test_target_state_zeta_vanishes(self):
        for r in (1.05, 1.5, 4.0):
            assert abs(mom.zeta12_from_moments(tmss_moments(r))) < 1e-10

    def test_gaussian_zeta_matches_closed_form(self):
        c = couplings(2.0)
        M = mom.drift_matrix(c)
        times = np.linspace(0.0, 2 * cf.t_pi(c), 41)
        for t, V in zip(times, mom.evolve_moments(M, mom.vacuum_moments(), times)):
            assert mom.zeta12_from_moments(V) == pytest.approx(
                cf.zeta12_closed_form(c, t), abs=1e-10
            )


class TestWickOracle:
    """The Wick expansion behind zeta12_from_moments, against brute force."""

    def test_against_brute_force_fock_at_r2(self):
        c = couplings(2.0)
        lay = ModeLayout((54, 54, 22))
        tpi = cf.t_pi(c)
        for frac in (0.15, 0.4, 0.65, 0.9, 1.2, 1.7):
            st = fdyn.analytic_state(c, frac * tpi, lay, tail_tol=1e-10)
            direct = fdyn.relative_number_squeezing(st, lay)
            wick = mom.zeta12_from_moments(mom.moments_from_fock_state(st, lay))
            assert wick == pytest.approx(direct, abs=1e-9)

    def test_moment_extraction_matches_gaussian_route(self):
        c = couplings(2.0)
        lay = ModeLayout((54, 54, 22))
        t = 0.6 * cf.t_pi(c)
        st = fdyn.analytic_state(c, t, lay, tail_tol=1e-10)
        V_state = mom.moments_from_fock_state(st, lay)
        V_exact = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), [t])[0]
        assert np.max(np.abs(V_state - V_exact)) < 1e-8


class TestRouteEquivalence:
    def test_gaussian_matches_closed_form_small_r(self):
        # the r -> 1+ regime is what the moment route exists for
        for r in (1.01, 1.05, 1.1, 1.5):
            c = couplings(r)
            M = mom.drift_matrix(c)
            times = np.linspace(0.0, 2 * cf.t_pi(c), 11)
            for t, V in zip(times, mom.evolve_moments(M, mom.vacuum_moments(), times)):
                occ = mom.occupations_from_moments(V)
                ref = cf.occupations_closed_form(c, t)
                scale = max(1.0, ref[0])
                assert max(abs(a - b) for a, b in zip(occ, ref)) < 1e-9 * scale

    @pytest.mark.parametrize("r", [1.01, 1.001, 1.0001])
    def test_zeta12_at_t_pi_within_wick_rounding(self, r):
        # zeta12 divides a difference of O(n^2) Wick terms by O(n), so rounding
        # alone costs ~n eps at n photons per mode; C = 4 bounds the gaussian
        # route's error at T_pi (0.7 n eps measured on this ladder)
        C = 4.0
        c = couplings(r, theta=2 * math.pi * 1e4)
        tpi = cf.t_pi(c)
        V = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), [tpi])[0]
        n = cf.occupations_closed_form(c, tpi)[0]
        err = abs(mom.zeta12_from_moments(V) - cf.zeta12_closed_form(c, tpi))
        assert err <= C * n * np.finfo(float).eps

    @pytest.mark.parametrize("r,dims", [(2.0, (50, 50, 19)), (3.0, (24, 24, 11))])
    def test_fock_matches_gaussian(self, r, dims):
        # near the vacuum return at 2 T_pi the ratio is 0/0: truncation noise
        # in the variance meets a vanishing denominator, so the sampled grid
        # stops at 1.95 T_pi and the truncation carries ~2x margin there
        c = couplings(r)
        lay = ModeLayout(dims)
        H = fdyn.build_effective_hamiltonian(c, lay)
        tpi = cf.t_pi(c)
        times = np.linspace(0.05 * tpi, 1.95 * tpi, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            traj = fdyn.evolve_state(H, vacuum_state(lay), [0.0, *times])
        Vs = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), traj.times)
        for occ_f, z_f, V in zip(traj.occupations[1:], traj.zeta12[1:], Vs[1:]):
            occ_g = mom.occupations_from_moments(V)
            assert max(abs(a - b) for a, b in zip(occ_f, occ_g)) < 1e-6
            assert z_f == pytest.approx(mom.zeta12_from_moments(V), abs=1e-6)
