"""Closed-form occupations, amplitude tables, target state and derived scalars."""

import math

import numpy as np
import pytest

from mwsqueeze import closed_form as cf
from mwsqueeze import fock_dynamics as fdyn
from mwsqueeze import moments as mom
from mwsqueeze.errors import CutoffError
from mwsqueeze.fock import ModeLayout
from mwsqueeze.params import EffectiveCouplings


def couplings(r, theta=1.0):
    return EffectiveCouplings.from_theta_r(theta, r)


class TestOccupations:
    def test_zero_time(self):
        assert tuple(cf.occupations_closed_form(couplings(2.0), 0.0)) == (0.0, 0.0, 0.0)

    def test_at_t_pi(self):
        c = couplings(2.0)
        n1, n2, n3 = cf.occupations_closed_form(c, cf.t_pi(c))
        x1, x2 = abs(c.xi1), abs(c.xi2)
        assert n3 == pytest.approx(0.0, abs=1e-12)
        assert n1 == pytest.approx(4 * x1**2 * x2**2 / c.theta**4)
        assert n1 == pytest.approx(n2)

    def test_photon_number_at_r_1p1(self):
        c = couplings(1.1)
        n1, _, _ = cf.occupations_closed_form(c, cf.t_pi(c))
        assert n1 == pytest.approx(109.75, abs=0.01)
        assert cf.photons_per_mode_at_t_pi(1.1) == pytest.approx(n1, rel=1e-12)

    def test_sum_rule(self):
        c = couplings(1.7)
        for t in np.linspace(0, 3 * cf.t_pi(c), 17):
            n1, n2, n3 = cf.occupations_closed_form(c, t)
            assert n1 == pytest.approx(n2 + n3, rel=1e-12, abs=1e-14)
            assert n1 >= 0 and n2 >= 0 and n3 >= 0

    def test_scalar_time_is_a_row_of_the_grid(self):
        # shape np.shape(t) + (3,), and a sample's bits do not depend on the grid
        c = couplings(1.3)
        times = np.linspace(0.0, 2.5 * cf.t_pi(c), 37)
        grid = cf.occupations_closed_form(c, times)
        assert grid.shape == (37, 3)
        assert cf.occupations_closed_form(c, times.reshape(37, 1)).shape == (37, 1, 3)
        for i, t in enumerate(times):
            row = cf.occupations_closed_form(c, t)
            assert row.shape == (3,)
            assert row.tobytes() == grid[i].tobytes()

    @pytest.mark.parametrize("refused", [
        lambda: cf.occupations_closed_form(couplings(2.0), math.nan),
        lambda: cf.occupations_closed_form(couplings(2.0), math.inf),
        lambda: cf.occupations_closed_form(couplings(2.0), [0.0, 1.0, -math.inf]),
        lambda: cf.evolved_amplitudes(couplings(2.0), math.nan, 3, 3),
        lambda: fdyn.analytic_state(couplings(2.0), math.nan, ModeLayout((4, 4, 4))),
    ], ids=["nan", "inf", "grid-minus-inf", "amplitudes-nan", "analytic-state-nan"])
    def test_non_finite_phase_refused(self, refused):
        with pytest.raises(ValueError, match=r"the phase theta \* t must be finite"):
            refused()


class TestEvolvedAmplitudes:
    def test_initial_state_is_vacuum(self):
        table = cf.evolved_amplitudes(couplings(2.0), 0.0, 5, 5)
        assert table[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(table.ravel()[1:])) == 0.0

    def test_norm_resummation(self):
        # full norm is exactly 1: sum |amp|^2 = e^{2 a4} / (1 - a1^2 - a2^2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = 1.0 + 10 ** rng.uniform(-0.5, 0.6)
            c = couplings(r)
            t = rng.uniform(0.1, 2.0) * cf.t_pi(c)
            m_max = cf.suggest_spin_cutoff(r, 1e-13)
            n_max = cf.suggest_cavity_cutoff(r, 1e-13)
            table = cf.evolved_amplitudes(c, t, m_max, n_max, tail_tol=1e-10)
            assert float(np.sum(np.abs(table) ** 2)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_exact_factorials(self):
        # log-gamma path against exact integer factorials at small indices
        c = couplings(1.8)
        t = 0.6 * cf.t_pi(c)
        alpha1, alpha2, exp_alpha4 = cf.propagator_amplitudes(c, t)
        table = cf.evolved_amplitudes(c, t, 6, 6, tail_tol=1.0)
        for m in range(7):
            for n in range(7):
                binom = math.sqrt(
                    math.factorial(m + n) / (math.factorial(m) * math.factorial(n))
                )
                expect = exp_alpha4 * alpha1**m * alpha2**n * binom
                assert complex(table[m, n]) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_t_pi_column_reproduces_target(self):
        c = couplings(2.0)
        table = cf.evolved_amplitudes(c, cf.t_pi(c), 8, 60, tail_tol=1e-10)
        assert np.max(np.abs(table[1:, :])) < 1e-12  # spin decoupled
        target = cf.tmss_amplitudes(2.0, 60)
        col = np.real(table[0, :])
        assert np.max(np.abs(col / np.linalg.norm(col) - np.real(target))) < 1e-12

    def test_cutoff_error(self):
        c = couplings(1.2)
        with pytest.raises(CutoffError):
            cf.evolved_amplitudes(c, cf.t_pi(c), 2, 2, tail_tol=1e-10)


class TestPropagatorAmplitudes:
    def test_invariants_on_grid(self):
        for r in np.linspace(1.05, 5.0, 20):
            c = couplings(float(r))
            for phase in np.linspace(0.0, 2 * np.pi, 20):
                t = phase / c.theta
                alpha1, alpha2, exp_alpha4 = cf.propagator_amplitudes(c, t)
                n1, n2, n3 = cf.occupations_closed_form(c, t)
                assert exp_alpha4 == pytest.approx(1 / math.sqrt(1 + n1), rel=1e-12)
                assert alpha1**2 == pytest.approx(n3 / (1 + n1), rel=1e-10, abs=1e-14)
                assert alpha2**2 == pytest.approx(n2 / (1 + n1), rel=1e-10, abs=1e-14)
                assert alpha1**2 + alpha2**2 < 1.0

    def test_alpha1_sign_follows_pair_correlation(self):
        c = couplings(2.0)
        tpi = cf.t_pi(c)
        assert cf.propagator_amplitudes(c, 0.5 * tpi)[0] > 0
        assert cf.propagator_amplitudes(c, 1.5 * tpi)[0] < 0


class TestTargetState:
    def test_r2_fixtures(self):
        amps = cf.tmss_amplitudes(2.0, 80)
        assert abs(amps[0]) ** 2 == pytest.approx(0.36, abs=1e-10)
        ratios = np.abs(amps[1:] / amps[:-1])
        assert np.allclose(ratios, 0.8, atol=1e-12)

    def test_norm_identity(self):
        # (1+r^2)^2 - 4 r^2 = (1-r^2)^2 makes the geometric series sum to 1;
        # the 1 - q^2 cancellation near r = 1 limits the attainable precision
        for r in (1.01, 1.3, 2.7, 9.0):
            prefactor = (r**2 - 1) / (1 + r**2)
            q = 2 * r / (1 + r**2)
            total = prefactor**2 / (1 - q**2)
            assert total == pytest.approx(1.0, rel=1e-8)

    def test_large_r_limit_is_vacuum(self):
        amps = cf.tmss_amplitudes(1e8, 10)
        assert abs(amps[0]) == pytest.approx(1.0, abs=1e-14)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            cf.tmss_amplitudes(1.0, 10)
        with pytest.raises(ValueError):
            cf.tmss_amplitudes(0.5, 10)

    @pytest.mark.parametrize("refused,message", [
        (lambda: cf.tmss_amplitudes(2.0, -1), "n_max must be non-negative"),
        (lambda: cf.evolved_amplitudes(couplings(2.0), 0.1, m_max=-1, n_max=3), "cutoffs must be non-negative"),
        (lambda: cf.evolved_amplitudes(couplings(2.0), 0.1, m_max=3, n_max=-1), "cutoffs must be non-negative"),
    ], ids=["tmss", "evolved-m", "evolved-n"])
    def test_negative_cutoffs_rejected(self, refused, message):
        with pytest.raises(ValueError, match=message):
            refused()


class TestSqueezingParameter:
    def test_value_at_1p1(self):
        # independent form: atanh(2r/(1+r^2)) = ln((1+r)/(r-1))
        assert cf.squeezing_parameter(1.1) == pytest.approx(math.log(21.0), rel=1e-12)
        assert cf.squeezing_parameter(1.1) == pytest.approx(3.04, abs=0.01)

    def test_hyperbolic_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r = 1.0 + 10 ** rng.uniform(-1.5, 0.8)
            eps = cf.squeezing_parameter(r)
            assert math.sinh(eps) ** 2 == pytest.approx(
                cf.photons_per_mode_at_t_pi(r), rel=1e-9
            )

    def test_large_r_limit(self):
        assert cf.squeezing_parameter(1e6) == pytest.approx(0.0, abs=1e-5)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            cf.squeezing_parameter(1.0)


class TestPreparationTime:
    def test_10_khz_gives_50_us(self):
        c = EffectiveCouplings.from_theta_r(2 * math.pi * 10e3, 1.1)
        assert cf.t_pi(c) == pytest.approx(50e-6, rel=1e-12)

    def test_doubling_theta_halves(self):
        c1 = EffectiveCouplings.from_theta_r(1.0, 1.4)
        c2 = EffectiveCouplings.from_theta_r(2.0, 1.4)
        assert cf.t_pi(c1) == pytest.approx(2 * cf.t_pi(c2), rel=1e-12)

    def test_low_end_of_range(self):
        c = EffectiveCouplings.from_theta_r(2 * math.pi * 1.8e3, 1.1)
        assert cf.t_pi(c) == pytest.approx(277.8e-6, rel=1e-3)


class TestCutoffHelpers:
    def test_cavity_cutoff_bounds_tail(self):
        for r in (1.3, 2.0, 3.0):
            n_max = cf.suggest_cavity_cutoff(r, 1e-10)
            q = (2 * r / (1 + r**2)) ** 2
            assert q**n_max <= 1e-10
            assert q ** (n_max - 1) > 1e-10 * q  # not wildly oversized

    def test_spin_cutoff_bounds_thermal_tail(self):
        for r in (1.5, 2.0, 3.0):
            m_max = cf.suggest_spin_cutoff(r, 1e-10)
            assert r ** (-2 * m_max) <= 1e-10

    @pytest.mark.parametrize("helper", [cf.suggest_cavity_cutoff, cf.suggest_spin_cutoff])
    @pytest.mark.parametrize("r,tail_mass,message", [
        (1.0, 1e-10, "r must exceed 1"),
        (0.5, 1e-10, "r must exceed 1"),
        (2.0, 0.0, "tail_mass must lie in"),
        (2.0, 1.0, "tail_mass must lie in"),
        (2.0, -1e-10, "tail_mass must lie in"),
    ])
    def test_cutoff_helpers_refuse_out_of_range_inputs(self, helper, r, tail_mass, message):
        with pytest.raises(ValueError, match=message):
            helper(r, tail_mass)

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_photons_per_mode_refuses_r_at_most_1(self, r):
        with pytest.raises(ValueError, match="r must exceed 1"):
            cf.photons_per_mode_at_t_pi(r)

    def test_zeta12_closed_form_limits(self):
        c = couplings(2.0)
        assert cf.zeta12_closed_form(c, 0.0) == 1.0
        assert cf.zeta12_closed_form(c, cf.t_pi(c)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r", [1.01, 1.1, 3.0])
    def test_scalar_zeta12_has_the_grid_bits(self, r):
        c = couplings(r, theta=2.0 * math.pi * 1e4)
        tpi = cf.t_pi(c)
        times = [0.0, tpi / 2, tpi, *np.linspace(0.0, 2.0 * tpi, 101)]
        grid = cf.zeta12_closed_form_grid(cf.occupations_closed_form(c, times))
        assert [cf.zeta12_closed_form(c, t) for t in times] == grid.tolist()
        assert cf.occupations_closed_form(c, np.reshape(times, (8, 13))).tobytes() == \
            cf.occupations_closed_form(c, times).tobytes()


class TestZeta12Ratio:
    """zeta12's vacuum rule, stated once in zeta12_ratio, at its 1e-14 boundary."""

    def test_one_below_the_boundary_the_ratio_at_it(self):
        var, total = np.array([3e-14, 3e-14, 2.0]), np.array([0.99e-14, 1e-14, 4.0])
        assert cf.zeta12_ratio(var, total).tolist() == [1.0, 3e-14 / 1e-14, 0.5]
        assert cf.zeta12_ratio(3e-14, 0.99e-14) == 1.0
        assert cf.zeta12_ratio(3e-14, 1e-14) == 3e-14 / 1e-14
        assert np.shape(cf.zeta12_ratio(3e-14, 1e-14)) == ()

    @pytest.mark.parametrize("total", [0.99e-14, 1e-14])
    def test_every_route_reader_switches_at_the_same_total(self, total):
        # n1 = total and n2 = 0 on every route.  The closed form at n3 = total and a
        # moment matrix holding only n1 share Var(n1 - n2) = total (1 + total); the
        # fock populations put total / 2 on |2, 0, 0>, so Var(n1 - n2) = 2 total - total^2
        vacuum = total < 1e-14
        closed = cf.zeta12_closed_form_grid(np.array([[total, 0.0, total]]))[0]
        V = np.zeros((6, 6), dtype=complex)
        V[1, 1] = total
        gaussian = mom.zeta12_from_moments(V)
        layout = ModeLayout((3, 2, 2))
        p = np.zeros(layout.dim)
        p[0], p[layout.index((2, 0, 0))] = 1.0 - total / 2, total / 2
        fock = fdyn._zeta12(p, layout.occupation_arrays())
        assert closed == gaussian == (1.0 if vacuum else total * (1.0 + total) / total)
        assert fock == (1.0 if vacuum else (2.0 * total - total * total) / total)
        assert (closed == 1.0) == (gaussian == 1.0) == (fock == 1.0) == vacuum
