"""Thermal-photon estimates and the rubidium preset."""

import math

import numpy as np
import pytest

from mwsqueeze import feasibility as fz

TWO_PI = 2 * math.pi


class TestThermalOccupation:
    def test_ln2_point_gives_one(self):
        # hbar w / kB T = ln 2  =>  n = 1/(2 - 1) = 1
        f = 6.83e9
        T = fz.HBAR * TWO_PI * f / (fz.KBOLTZ * math.log(2.0))
        assert fz.thermal_occupation(f, T) == pytest.approx(1.0, rel=1e-12)

    def test_crossover_temperature(self):
        T = fz.crossover_temperature(6.83e9)
        assert T == pytest.approx(0.328, abs=0.001)
        # within 10% of the quoted 350 mK order
        assert abs(T - 0.35) / 0.35 < 0.10

    def test_value_at_100_mk(self):
        n = fz.thermal_occupation(6.83e9, 0.1)
        assert n == pytest.approx(0.0391856, abs=1e-6)
        assert n < 0.05  # << 1: thermal photons negligible there

    def test_monotone_in_temperature(self):
        vals = [fz.thermal_occupation(6.83e9, T) for T in np.linspace(0.03, 1.0, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_in_frequency(self):
        vals = [fz.thermal_occupation(f, 0.1) for f in np.linspace(1e9, 30e9, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_cold_limit_is_exp_minus_x(self):
        # where 1 / expm1(x) is finite it is today's value; past expm1's overflow it is
        # exp(-x), subnormal or 0, and 0 where kB T underflows
        x_of = lambda T: fz.HBAR * 2 * math.pi * 6.83e9 / (fz.KBOLTZ * T)  # noqa: E731
        T_edge = fz.HBAR * 2 * math.pi * 6.83e9 / (fz.KBOLTZ * 709.78)
        assert fz.thermal_occupation(6.83e9, T_edge) == 1.0 / math.expm1(x_of(T_edge))
        T_cold = 0.999 * T_edge * 709.78 / 709.79
        assert fz.thermal_occupation(6.83e9, T_cold) == math.exp(-x_of(T_cold)) > 0.0
        assert fz.thermal_occupation(6.83e9, 4e-4) == 0.0
        assert fz.thermal_occupation(6.83e9, 5e-324) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fz.thermal_occupation(0.0, 0.1)
        with pytest.raises(ValueError):
            fz.thermal_occupation(6.83e9, 0.0)


class TestAbsorptionRate:
    def test_zero_atoms(self):
        assert fz.absorption_rate(1.0, 0.0, 1.0) == 0.0

    def test_linear_in_atom_number(self):
        assert fz.absorption_rate(1.0, 4.0, 2.0) == pytest.approx(
            4 * fz.absorption_rate(1.0, 1.0, 2.0)
        )

    def test_collective_coupling_fixture(self):
        # sqrt(N) g / 2pi = 40 kHz with gamma_a / 2pi = 1 MHz: 1.6 kHz
        gamma_c = fz.absorption_rate(TWO_PI * 40e3, 1.0, TWO_PI * 1e6)
        assert gamma_c / TWO_PI == pytest.approx(1.6e3, rel=1e-12)

    def test_zero_linewidth_rejected(self):
        with pytest.raises(ValueError):
            fz.absorption_rate(1.0, 1.0, 0.0)


@pytest.mark.parametrize("refused,message", [
    (lambda: fz.crossover_temperature(0.0), "frequency must be positive"),
    (lambda: fz.crossover_temperature(-6.83e9), "frequency must be positive"),
    (lambda: fz.absorption_rate(1.0, -1.0, 1.0), "n_atoms must be non-negative"),
    (lambda: fz.heating_rate(-1.0, 0.1), "inputs must be non-negative"),
    (lambda: fz.heating_rate(1.0, -0.1), "inputs must be non-negative"),
], ids=["crossover-zero", "crossover-negative", "absorption-negative-atoms",
        "heating-negative-kappa", "heating-negative-occupation"])
def test_out_of_range_inputs_rejected(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


class TestSuppression:
    def test_fixtures(self):
        assert fz.thermal_suppression(1.0, 0.0) == 1.0
        assert fz.thermal_suppression(2.0, 2.0) == pytest.approx(0.5)
        assert fz.thermal_suppression(1.0, 99.0) == pytest.approx(0.01, rel=1e-12)

    def test_range_and_monotonicity(self):
        vals = [fz.thermal_suppression(1.0, g) for g in np.linspace(0.0, 50.0, 20)]
        assert all(0 < v <= 1 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestHeatingRate:
    def test_fixtures(self):
        assert fz.heating_rate(1.0, 0.0) == 0.0
        rate = fz.heating_rate(TWO_PI * 7e3, 0.038)
        assert rate / TWO_PI == pytest.approx(266.0, rel=1e-12)
        assert fz.heating_rate(2.0, 0.3) == pytest.approx(2 * fz.heating_rate(1.0, 0.3))


class TestRbPreset:
    def test_headline_numbers(self):
        p = fz.rb_preset()
        assert p.t_pi_s == pytest.approx(50e-6, rel=1e-9)
        assert p.epsilon == pytest.approx(3.04, abs=0.01)
        assert p.photons_per_mode == pytest.approx(109.75, abs=0.01)

    def test_self_consistency(self):
        p = fz.rb_preset()
        assert math.sinh(p.epsilon) ** 2 == pytest.approx(p.photons_per_mode, rel=5e-3)

    def test_back_solved_coupling_in_quoted_range(self):
        p = fz.rb_preset()
        lo, hi = p.collective_coupling_over_2pi_range_hz
        assert lo < p.collective_coupling_over_2pi_hz < hi
        # chain: |xi1| = collective / dispersive ratio, theta from (r, xi1)
        xi1 = TWO_PI * p.collective_coupling_over_2pi_hz / p.dispersive_ratio
        theta = xi1 * math.sqrt(p.rabi_ratio**2 - 1)
        assert theta / TWO_PI == pytest.approx(p.theta_over_2pi_hz, rel=1e-9)

    def test_derived_values_recomputed(self):
        a, b = fz.rb_preset(), fz.rb_preset()
        assert a == b
