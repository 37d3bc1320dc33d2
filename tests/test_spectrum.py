"""Output squeezing spectrum: calibration, minima structure, stability, Parseval."""

import numpy as np
import pytest

from mwsqueeze import moments as mom
from mwsqueeze import spectrum as spec
from mwsqueeze.errors import StabilityError
from mwsqueeze.params import DecayRates, EffectiveCouplings, oscillation_rate

from oracles import spectral_moment_integral


def fig_params(theta_over_kappa, r=1.1, kappa=1.0):
    theta = theta_over_kappa * kappa
    return EffectiveCouplings.from_theta_r(theta, r), DecayRates.cavities(kappa)


class TestShotNoise:
    def test_uncoupled_is_exactly_one(self):
        d = DecayRates.cavities(1.0)
        grid = np.linspace(-3, 3, 201)
        for c in (None, (0.0, 0.0)):
            res = spec.squeezing_spectrum(c, d, grid)
            assert np.max(np.abs(res.s_plus - 1.0)) <= 1e-10
            assert np.max(np.abs(res.s_minus - 1.0)) <= 1e-10

    def test_unequal_kappas_still_calibrate(self):
        d = DecayRates(kappa1=0.7, kappa2=2.3)
        res = spec.squeezing_spectrum(None, d, np.linspace(-3, 3, 101))
        assert np.max(np.abs(res.s_plus - 1.0)) <= 1e-10


class TestRegimes:
    def test_theta_10_kappa_three_minima_at_0_and_theta(self):
        c, d = fig_params(10.0)
        grid = spec.default_omega_grid(c.theta, d.kappa1)
        res = spec.squeezing_spectrum(c, d, grid)
        assert res.regime_label == "three-minima"
        locs = sorted(w for w, _ in res.minima)
        step = grid[1] - grid[0]
        assert len(locs) == 3
        assert abs(locs[0] + c.theta) <= step
        assert abs(locs[1]) <= step
        assert abs(locs[2] - c.theta) <= step

    def test_theta_tenth_kappa_single_narrow(self):
        c, d = fig_params(0.1)
        grid = spec.default_omega_grid(c.theta, d.kappa1)
        res = spec.squeezing_spectrum(c, d, grid)
        assert len(res.minima) == 1
        assert res.regime_label == "narrow"

    def test_undamped_spin_pins_central_minimum(self):
        # with gamma_s = 0 the spin response is rigid at w = 0 and the
        # central value equals ((r-1)/(r+1))^2 for every theta/kappa
        ideal = (0.1 / 2.1) ** 2
        for ratio in (10.0, 1.0, 0.1):
            c, d = fig_params(ratio)
            res = spec.squeezing_spectrum(c, d, np.linspace(-c.theta, c.theta, 11))
            center = res.s_plus[5]
            assert center == pytest.approx(ideal, rel=1e-9)

    def test_spin_damping_lifts_and_merges(self):
        # extension knob: with spin loss the regimes differentiate the way
        # the narrative claims (merged broad dip, degraded narrow regime)
        kappa = 1.0
        mins = {}
        for ratio in (10.0, 1.0, 0.1):
            c = EffectiveCouplings.from_theta_r(ratio * kappa, 1.1)
            d = DecayRates(kappa1=kappa, kappa2=kappa, gamma_s=kappa)
            grid = spec.default_omega_grid(c.theta, kappa)
            res = spec.squeezing_spectrum(c, d, grid)
            mins[ratio] = (len(res.minima), float(np.min(res.s_plus)))
        assert mins[10.0][0] == 3
        assert mins[1.0][0] == 1
        assert mins[0.1][0] == 1
        assert mins[0.1][1] > mins[1.0][1]  # squeezing degraded below kappa


class TestSanity:
    def test_symmetry(self):
        for ratio in (10.0, 1.0, 0.1):
            c, d = fig_params(ratio)
            res = spec.squeezing_spectrum(c, d, spec.default_omega_grid(c.theta, d.kappa1, 501))
            assert np.max(np.abs(res.s_plus - res.s_plus[::-1])) <= 1e-8
            assert np.max(np.abs(res.s_minus - res.s_minus[::-1])) <= 1e-8

    def test_nonnegative(self):
        c, d = fig_params(1.0)
        res = spec.squeezing_spectrum(c, d, spec.default_omega_grid(c.theta, d.kappa1, 501))
        assert res.s_plus.min() >= -1e-10

    def test_plus_minus_quadratures_agree_here(self):
        c, d = fig_params(1.0)
        res = spec.squeezing_spectrum(c, d, np.linspace(-2, 2, 101))
        assert np.max(np.abs(res.s_plus - res.s_minus)) < 1e-12

    def test_asymmetric_grid_rejected(self):
        c, d = fig_params(1.0)
        with pytest.raises(ValueError):
            spec.squeezing_spectrum(c, d, np.linspace(-1.0, 2.0, 101))

    @pytest.mark.parametrize("grid", [np.linspace(-1.0, 1.0, 9).reshape(3, 3), [-1.0, 1.0]],
                             ids=["two-d", "two-points"])
    def test_grid_shape_rejected(self, grid):
        c, d = fig_params(1.0)
        with pytest.raises(ValueError, match="1-d array with at least 3 points"):
            spec.squeezing_spectrum(c, d, grid)


class TestSpotFrequencyOracle:
    """Single frequencies of the stacked spectrum against a direct 6x6 solve."""

    W_PLUS = np.array([1, 1, -1, -1, 0, 0]) / np.sqrt(2.0)
    W_MINUS = -1j * np.array([1, -1, 1, -1, 0, 0]) / np.sqrt(2.0)

    @staticmethod
    def density(M, N, w, weights):
        # vacuum inputs: <w_j(t) w_k(t')> = delta(t - t') for (j, k) = (0,1), (2,3), (4,5)
        C = np.zeros((6, 6))
        C[0, 1] = C[2, 3] = C[4, 5] = 1.0
        k = len(M)

        def y(freq):
            T = np.linalg.solve(-1j * freq * np.eye(k) - M, N)
            return weights[:k] @ (N @ T - np.eye(k))

        yp, ym = y(w), y(-w)
        Ck = C[:k, :k]
        return complex(yp @ Ck @ ym + ym @ Ck @ yp)

    @pytest.mark.parametrize("c,gamma_s", [
        (EffectiveCouplings.from_theta_r(2.0, 1.1), 0.0),
        (EffectiveCouplings.from_theta_r(2.0, 1.1), 1.0),
        ((0.3 + 0.4j, -0.9 + 0.5j), 0.4),
        # theta = kappa/4: two eigenvalues -kappa/4 +- sqrt(kappa^2/16 - theta^2)
        # of each charge sector meet (an exceptional point, ~1e-8 apart here)
        (EffectiveCouplings.from_theta_r(0.25, 1.1), 0.0),
    ], ids=["undamped-spin", "damped-spin", "raw-pair", "coalescing-sector"])
    def test_matches_direct_solve(self, c, gamma_s):
        kappa = 1.0
        d = DecayRates(kappa1=kappa, kappa2=kappa, gamma_s=gamma_s)
        grid = spec.default_omega_grid(oscillation_rate(c), kappa, 401)
        res = spec.squeezing_spectrum(c, d, grid)
        N = np.diag(np.sqrt([kappa, kappa, kappa, kappa, gamma_s, gamma_s]))
        M = mom.drift_matrix(c, d)
        # shot noise: the uncoupled cavities alone (the bare spin block is
        # singular at w = 0 without damping and never reaches the outputs)
        M0 = mom.drift_matrix(None, d)[:4, :4]
        shot = self.density(M0, N[:4, :4], 0.0, self.W_PLUS).real
        for i in (0, 57, 200, 311, 400):
            w = grid[i]
            expect_plus = self.density(M, N, w, self.W_PLUS)
            expect_minus = self.density(M, N, w, self.W_MINUS)
            assert abs(expect_plus.imag) <= 1e-12 * shot
            assert res.s_plus[i] == pytest.approx(expect_plus.real / shot, abs=1e-12)
            assert res.s_minus[i] == pytest.approx(expect_minus.real / shot, abs=1e-12)
        assert grid[200] == 0.0


class TestStability:
    def test_closed_case_not_stable(self):
        c = EffectiveCouplings.from_theta_r(1.0, 1.1)
        stable, abscissa = spec.stability_check(c, DecayRates())
        assert not stable
        assert abs(abscissa) < 1e-12

    def test_damped_case_stable(self):
        c = EffectiveCouplings.from_theta_r(1.0, 1.1)
        stable, abscissa = spec.stability_check(c, DecayRates.cavities(0.1))
        assert stable and abscissa < 0

    def test_bare_parametric_gain_unstable(self):
        # xi2 = 0 with an undamped spin: parametric growth survives any kappa
        stable, abscissa = spec.stability_check((1.0, 0.0), DecayRates.cavities(1.5))
        assert not stable
        assert abscissa > 0

    def test_unstable_spectrum_raises_with_eigenvalue(self):
        d = DecayRates.cavities(1.5)
        with pytest.raises(StabilityError) as err:
            spec.squeezing_spectrum((1.0, 0.0), d, np.linspace(-2, 2, 11))
        assert err.value.max_real_eigenvalue > 0


class TestClassifier:
    def _result(self, omega, s):
        minima = spec.find_local_minima(omega, s)
        return spec.SpectrumResult(omega, s, s.copy(), minima, "narrow")

    def test_three_dips(self):
        omega = np.linspace(-3, 3, 601)
        s = 1 - 0.8 * (
            np.exp(-((omega - 1) ** 2) / 0.02)
            + np.exp(-(omega**2) / 0.02)
            + np.exp(-((omega + 1) ** 2) / 0.02)
        )
        res = self._result(omega, s)
        assert spec.classify_regime(res, 0.1) == "three-minima"

    def test_single_broad_dip(self):
        omega = np.linspace(-3, 3, 601)
        s = 1 - 0.9 * np.exp(-(omega**2) / 2.0)
        res = self._result(omega, s)
        assert spec.classify_regime(res, 0.5) == "single-broad"

    def test_single_narrow_dip(self):
        omega = np.linspace(-3, 3, 601)
        s = 1 - 0.9 * np.exp(-(omega**2) / 0.001)
        res = self._result(omega, s)
        assert spec.classify_regime(res, 2.0) == "narrow"

    def test_close_dips_merge_into_the_deeper(self):
        # smoothed minima at indices 5 and 7, closer than _MIN_SEPARATION; S reads 0.6 and 0.5
        # there, so the later one replaces the first, and in the mirrored curve the first stays
        s = np.array([1.0, 1.0, 1.0, 1.0, 0.2, 0.6, 0.3, 0.5, 0.1, 1.0, 1.0, 1.0])
        omega = np.arange(12.0)
        assert 7 - 5 < spec._MIN_SEPARATION
        assert spec.find_local_minima(omega, s) == [(7.0, 0.5)]
        assert spec.find_local_minima(omega, s[::-1].copy()) == [(4.0, 0.5)]

    @pytest.mark.parametrize("seed", range(4))
    def test_minima_match_the_per_index_scan(self, seed):
        # steps of 1e-12 put many smoothed differences within rounding of _DIP_FLOOR
        rng = np.random.default_rng(seed)
        s = 1.0 + rng.integers(-4, 5, size=400) * 1e-12
        omega = np.linspace(-1.0, 1.0, 400)
        y = spec._smooth3(s)
        idx = [i for i in range(1, len(y) - 1)
               if y[i] + spec._DIP_FLOOR < y[i - 1] and y[i] + spec._DIP_FLOOR < y[i + 1]]
        merged = []
        for i in idx:
            if merged and i - merged[-1] < spec._MIN_SEPARATION:
                if s[i] < s[merged[-1]]:
                    merged[-1] = i
            else:
                merged.append(i)
        assert len(merged) > 3
        assert spec.find_local_minima(omega, s) == [(float(omega[i]), float(s[i])) for i in merged]


class TestParseval:
    def test_spectral_integral_matches_lyapunov(self):
        c = EffectiveCouplings.from_theta_r(1.0, 1.1)
        d = DecayRates.cavities(1.0)
        M = mom.drift_matrix(c, d)
        D = mom.diffusion_matrix(d)
        # steady state by integrating the moment equation to convergence
        V_time = mom.evolve_moments(M, mom.vacuum_moments(), [80.0], diffusion=D)[0]
        V_spec = spectral_moment_integral(c, d, omega_max=80.0, points=16001)
        scale = np.max(np.abs(V_time))
        assert np.max(np.abs(V_spec - V_time)) <= 0.01 * scale
