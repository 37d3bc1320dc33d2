"""Command-line runner: configs, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mwsqueeze
from mwsqueeze import closed_form as cf
from mwsqueeze import feasibility as feas
from mwsqueeze import moments as mom
from mwsqueeze import spectrum as spec
from mwsqueeze.cli import main, write_csv
from mwsqueeze.errors import NumericalError, TruncationWarning
from mwsqueeze.params import DecayRates, EffectiveCouplings


def run(tmp_path, command, config, name="cfg.json", outdir="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / outdir
    code = main([command, str(cfg_path), "--output-dir", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {h: np.array([float(r[i]) for r in data]) for i, h in enumerate(header)}
    return header, cols


class TestEvolve:
    def test_gaussian_route_dips_at_t_pi(self, tmp_path):
        code, out = run(tmp_path, "evolve", {
            "route": "gaussian", "r": 1.1, "theta_hz": 10e3, "num_samples": 81,
        })
        assert code == 0
        header, cols = read_csv(out / "evolve_gaussian.csv")
        assert header == ["t_seconds", "theta_t", "n1", "n2", "n3", "zeta12"]
        assert cols["zeta12"][0] == 1.0
        assert cols["zeta12"][40] <= 1e-8  # middle sample is exactly t_pi
        assert (out / "run_manifest.json").exists()

    def test_zero_couplings(self, tmp_path):
        code, out = run(tmp_path, "evolve", {
            "route": "gaussian", "xi1_hz": 0.0, "xi2_hz": 0.0,
            "t_final_s": 1e-4, "num_samples": 11,
        })
        assert code == 0
        _, cols = read_csv(out / "evolve_gaussian.csv")
        for key in ("n1", "n2", "n3"):
            assert np.all(cols[key] == 0.0)
        assert np.all(cols["zeta12"] == 1.0)

    def test_fock_route_refusal_directs_to_gaussian(self, tmp_path, capsys):
        code, _ = run(tmp_path, "evolve", {"route": "fock", "r": 1.1, "theta_hz": 10e3})
        assert code == 2
        assert "gaussian" in capsys.readouterr().err

    def test_route_all_skips_fock_where_the_cutoff_is_out_of_reach(self, tmp_path):
        # at r = 1.00000001 the cavity cutoff is ~2e17 photons: the fock route is
        # skipped on route all, and refused on route fock (see the malformed configs)
        code, out = run(tmp_path, "evolve", {
            "route": "all", "r": 1.00000001, "theta_hz": 10e3, "num_samples": 41,
        })
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["routes"] == ["analytic", "gaussian"]
        assert "fock_skipped" in summary

    def test_route_all_cross_route_discrepancy(self, tmp_path):
        code, out = run(tmp_path, "evolve", {
            "route": "all", "r": 2.0, "theta_hz": 10e3, "num_samples": 41,
        })
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert set(summary["routes"]) == {"analytic", "fock", "gaussian"}
        for pair in summary["discrepancies"].values():
            assert pair["max_occupation_discrepancy"] <= 1e-6

    def test_route_all_uncoupled_fock(self, tmp_path):
        # with both rates 0 the fock route stays in the vacuum
        code, out = run(tmp_path, "evolve", {
            "route": "all", "xi1_hz": 0.0, "xi2_hz": 0.0, "t_final_s": 1e-4, "num_samples": 21,
        })
        assert code == 0
        header, cols = read_csv(out / "evolve_fock.csv")
        assert header[-1] == "leakage"
        for key in ("n1", "n2", "n3", "leakage"):
            assert np.all(cols[key] == 0.0)
        assert np.all(cols["zeta12"] == 1.0)
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["routes"] == ["analytic", "fock", "gaussian"]
        for pair in summary["discrepancies"].values():
            assert pair["max_occupation_discrepancy"] == 0.0
            assert pair["max_zeta12_discrepancy"] == 0.0

    def test_fock_refusal_names_the_block_size(self, tmp_path, capsys):
        # the default cutoffs at r = 1.1, (2540, 2540, 122), hold 302 499 lattice states
        code, _ = run(tmp_path, "evolve", {"route": "fock", "r": 1.1, "theta_hz": 10e3})
        err = capsys.readouterr().err
        assert code == 2
        assert "302499 states" in err and "> 4000" in err and "gaussian route" in err

    def test_huge_dims_refused_before_allocation(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"route": "fock", "r": 3.0, "theta_hz": 1e4, "dims": [10**9] * 3}))
        tracemalloc.start()
        try:
            code = main(["evolve", str(cfg_path), "--output-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "500000000500000000 states" in capsys.readouterr().err
        assert peak < 1e6

    def test_small_lattice_beyond_the_composite_cap(self, tmp_path):
        # 270 000 composite states but a lattice of 897: the cap is on the lattice
        with pytest.warns(TruncationWarning):
            code, out = run(tmp_path, "evolve", {
                "route": "fock", "r": 3.0, "theta_hz": 10e3, "dims": [300, 300, 3], "num_samples": 21,
            })
        assert code == 0
        header, cols = read_csv(out / "evolve_fock.csv")
        assert header[-1] == "leakage" and len(cols["n1"]) == 21

    def test_route_fock_reaches_r_1_65(self, tmp_path):
        # default cutoffs (97, 97, 24): 225 816 composite states, 2 052 on the lattice
        code, out = run(tmp_path, "evolve", {
            "route": "all", "r": 1.65, "theta_hz": 10e3, "num_samples": 41,
        })
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["routes"] == ["analytic", "fock", "gaussian"]
        assert summary["discrepancies"]["analytic_vs_fock"]["max_occupation_discrepancy"] <= 1e-6

    def test_route_all_keeps_fock_skipped_at_r_1_01(self, tmp_path):
        code, out = run(tmp_path, "evolve", {
            "route": "all", "r": 1.01, "theta_hz": 10e3, "num_samples": 41,
        })
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["routes"] == ["analytic", "gaussian"]
        assert "fock_skipped" in summary

    def test_route_fock_builds_no_composite_operator(self, tmp_path, monkeypatch):
        # the route works on the charge lattice: no ladder operator, Hamiltonian
        # or full-layout array is built
        from mwsqueeze import fock
        from mwsqueeze import fock_dynamics as fdyn

        def refuse(*args, **kwargs):
            raise AssertionError("composite-space build")

        box_entries, sizes = fdyn._box_entries, []

        def on_a_block(H, states):
            # a FockOperator is a description; its entries are built on fewer states than the box
            assert len(states) < H.layout.dim
            sizes.append(len(states))
            return box_entries(H, states)

        # fock_dynamics holds no name of the composite ladder operators or top-level mask
        assert not hasattr(fdyn, "mode_annihilator")
        assert not hasattr(fdyn, "top_level_mask")
        monkeypatch.setattr(fock, "mode_annihilator", refuse)
        for name in ("build_effective_hamiltonian", "ModeLayout", "vacuum_state"):
            monkeypatch.setattr(fdyn, name, refuse)
        monkeypatch.setattr(fdyn, "_box_entries", on_a_block)
        monkeypatch.setattr(fock.ModeLayout, "occupation_arrays", refuse)
        code, out = run(tmp_path, "evolve", {"route": "fock", "r": 3.0, "theta_hz": 10e3, "num_samples": 41})
        assert code == 0
        assert len(read_csv(out / "evolve_fock.csv")[1]["n1"]) == 41
        assert sizes

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "evolve", {"route": "gaussian", "kappa": 7000.0})
        assert code == 2
        assert "unit suffix" in capsys.readouterr().err


# The route-envelope table of `evolve --route all` at theta / 2 pi = 10 kHz, the
# default cutoffs and 401 samples: the fock route against the analytic one down to
# r = 1.65, and the gaussian route against it down to r = 1.0001, where the fock
# route is refused.  Each bound is ten times the discrepancy measured with numpy 2.4
# and OpenBLAS on x86-64 (the row's comment), rounded up to one digit: a decade of
# slack.  The fock cells' gap is the truncation's tail; the gaussian cells' grows with
# the photon number, about 1 / (r - 1)^2 per mode.  r = 1.5, the smallest r the fock
# route admits, takes 6-9 s and is left out.
_ROUTE_ENVELOPE = [
    # pair, r, bound on occupations, on zeta12   # measured
    ("analytic_vs_fock", 4.0, 5e-10, 2e-5),      # 4.8e-11, 1.2e-6
    ("analytic_vs_fock", 3.0, 3e-9, 6e-5),       # 2.1e-10, 5.2e-6
    ("analytic_vs_fock", 2.0, 2e-8, 2e-4),       # 1.3e-9, 1.9e-5
    ("analytic_vs_fock", 1.65, 5e-8, 3e-4),      # 4.5e-9, 2.8e-5
    ("analytic_vs_gaussian", 1.1, 8e-13, 7e-13),  # 7.1e-14, 6.1e-14
    ("analytic_vs_gaussian", 1.01, 4e-10, 7e-11),  # 3.0e-11, 6.6e-12
    ("analytic_vs_gaussian", 1.001, 5e-7, 6e-9),  # 4.0e-8, 5.8e-10
    ("analytic_vs_gaussian", 1.0001, 2e-4, 7e-7),  # 1.9e-5, 6.1e-8
]


@pytest.mark.parametrize("pair,r,occ_bound,zeta_bound", _ROUTE_ENVELOPE,
                         ids=[f"{pair.split('_')[-1]}-r{r:g}" for pair, r, *_ in _ROUTE_ENVELOPE])
def test_route_envelope(tmp_path, pair, r, occ_bound, zeta_bound):
    code, out = run(tmp_path, "evolve", {"route": "all", "r": r, "theta_hz": 1e4})
    assert code == 0
    summary = json.loads((out / "evolve_summary.json").read_text())
    fock = pair == "analytic_vs_fock"
    assert summary["routes"] == (["analytic", "fock", "gaussian"] if fock else ["analytic", "gaussian"])
    cell = summary["discrepancies"][pair]
    assert cell["max_occupation_discrepancy"] <= occ_bound
    assert cell["max_zeta12_discrepancy"] <= zeta_bound


class TestSpectrum:
    def test_three_minima_regime(self, tmp_path):
        code, out = run(tmp_path, "spectrum", {
            "r": 1.1, "theta_over_kappa": 10.0, "kappa_hz": 7e3, "num_points": 1001,
        })
        assert code == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["regime"] == "three-minima"
        header, cols = read_csv(out / "spectrum.csv")
        assert header == ["omega_over_theta", "s_plus", "s_minus"]
        assert abs(cols["omega_over_theta"][0] + 3.0) < 1e-12

    def test_narrow_regime(self, tmp_path):
        code, out = run(tmp_path, "spectrum", {
            "r": 1.1, "theta_over_kappa": 0.1, "kappa_hz": 7e3, "num_points": 1001,
        })
        assert code == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["regime"] == "narrow"

    def test_shot_noise_run(self, tmp_path):
        code, out = run(tmp_path, "spectrum", {
            "xi1_hz": 0.0, "xi2_hz": 0.0, "kappa_hz": 7e3, "num_points": 101,
        })
        assert code == 0
        _, cols = read_csv(out / "spectrum.csv")
        assert np.max(np.abs(cols["s_plus"] - 1.0)) <= 1e-10

    def test_underflowing_raw_pair_takes_the_linewidth_scale(self, tmp_path):
        # |xi2|^2 - |xi1|^2 underflows to 0: no oscillation rate, so omega is in units of kappa
        code, out = run(tmp_path, "spectrum", {
            "xi1_hz": 1e-200, "xi2_hz": 2e-200, "kappa_hz": 7e3, "gamma_s_hz": 7e3, "num_points": 101,
        })
        assert code == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["omega_unit_rad_s"] == summary["kappa_rad_s"]

    def test_flat_spectrum_reports_no_minima(self, tmp_path):
        # the uncoupled spectrum is 1 to within a few ulps; rounding is no dip
        code, out = run(tmp_path, "spectrum", {
            "xi1_hz": 0.0, "xi2_hz": 0.0, "kappa_hz": 7e3, "num_points": 201,
        })
        assert code == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["minima_omega_over_theta"] == []

    def test_unstable_config_exit_code(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", {
            "xi1_hz": 1e3, "xi2_hz": 0.0, "kappa_hz": 1e3, "num_points": 101,
        })
        assert code == 3
        assert "unstable" in capsys.readouterr().err

    # the raw rad/s resolvent sums overflow or divide 0 by 0 at these rate
    # scales; numpy's RuntimeWarnings would reach stderr before the refusal
    @pytest.mark.parametrize("config", [
        {"r": 1.1, "theta_over_kappa": 1.0, "kappa_hz": 1e150, "num_points": 101},
        {"kappa_hz": 1e-310, "xi2_hz": 0.0},
        {"r": 1.1, "gamma_s_hz": 1e300, "theta_over_kappa": 1.0, "kappa_hz": 7000.0, "num_points": 101},
    ], ids=["kappa-1e150", "kappa-subnormal", "gamma-s-1e300"])
    def test_extreme_rate_scale_is_a_one_line_numerical_error(self, tmp_path, capsys, config):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "spectrum", config)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not caught, [str(w.message) for w in caught]
        assert not (out / "spectrum.csv").exists()


class TestValidate:
    def test_default_suite_passes(self, tmp_path):
        code, out = run(tmp_path, "validate", {})
        assert code == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["failures"] == 0

    def test_corrupted_sign_fails_conservation(self, tmp_path):
        code, out = run(tmp_path, "validate", {"corrupt_hamiltonian_sign": True})
        assert code == 1
        report = json.loads((out / "validate_report.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "conserved_number" in failed

    def test_builds_no_effective_hamiltonian(self, tmp_path, monkeypatch):
        # validate builds its generators as FockOperators: the benchmark's traced hook on
        # build_effective_hamiltonian reads an operator matrix a FockOperator does not hold
        from mwsqueeze import fock_dynamics as fdyn

        def refuse(*args, **kwargs):
            raise AssertionError("build_effective_hamiltonian called")

        monkeypatch.setattr(fdyn, "build_effective_hamiltonian", refuse)
        code, out = run(tmp_path, "validate", {})
        assert code == 0
        assert len(json.loads((out / "validate_report.json").read_text())["checks"]) == 16

    def test_unknown_key_refused_without_a_manifest(self, tmp_path, capsys):
        code, out = run(tmp_path, "validate", {"dimension_cap": 100})
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'dimension_cap'" in err and "'validate'" in err
        assert not (out / "run_manifest.json").exists()


class TestSweep:
    def test_epsilon_column_matches_oracle(self, tmp_path):
        # the last three sit where 2r / (1 + r^2) rounds toward 1
        r_values = [1.01, 1.05, 1.1, 1.00001, 1.000001, 1.0000000000000002]
        code, out = run(tmp_path, "sweep", {"outputs": ["epsilon"], "r_values": r_values})
        assert code == 0
        _, cols = read_csv(out / "sweep.csv")
        expected = [math.log((1.0 + r) / (r - 1.0)) for r in r_values]
        assert np.allclose(cols["epsilon"], expected, rtol=1e-12)

    def test_single_point(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "outputs": ["t_pi_s"], "r_values": [1.1], "theta_hz": 10e3,
        })
        assert code == 0
        _, cols = read_csv(out / "sweep.csv")
        assert len(cols["t_pi_s"]) == 1
        assert cols["t_pi_s"][0] == pytest.approx(50e-6)

    def test_temperature_grid_monotone(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "outputs": ["n_thermal"], "temperature_k_values": [0.05, 0.1, 0.35],
            "frequency_hz": 6.83e9,
        })
        assert code == 0
        _, cols = read_csv(out / "sweep.csv")
        n = cols["n_thermal"]
        assert n[0] < n[1] < n[2]

    def test_every_output_column_matches_the_library(self, tmp_path):
        # theta_hz beside the ratio axis: t_pi_s must follow the axis instead
        kappa_hz, frequency_hz, gamma_c_hz = 7e3, 6.83e9, 2e3
        r_values, ratios, temps = [1.1, 2.5], [0.5, 3.0], [0.05, 0.2]
        outputs = ["epsilon", "t_pi_s", "min_s", "n_thermal", "suppression"]
        code, out = run(tmp_path, "sweep", {
            "outputs": outputs, "r_values": r_values, "theta_over_kappa_values": ratios,
            "temperature_k_values": temps, "theta_hz": 1e4, "kappa_hz": kappa_hz,
            "frequency_hz": frequency_hz, "gamma_c_hz": gamma_c_hz,
        })
        assert code == 0
        header, cols = read_csv(out / "sweep.csv")
        assert header == ["r", "theta_over_kappa", "temperature_k"] + outputs
        points = [(r, q, t) for r in r_values for q in ratios for t in temps]
        assert list(zip(cols["r"], cols["theta_over_kappa"], cols["temperature_k"])) == points
        kappa = 2.0 * math.pi * kappa_hz

        def min_s(r, q):
            c = EffectiveCouplings.from_theta_r(q * kappa, r)
            grid = spec.default_omega_grid(q * kappa, kappa, 2001)
            return float(np.min(spec.squeezing_spectrum(c, DecayRates.cavities(kappa), grid).s_plus))

        expected = {
            "epsilon": [cf.squeezing_parameter(r) for r, _, _ in points],
            "t_pi_s": [1.0 / (2.0 * (q * kappa_hz)) for _, q, _ in points],
            "min_s": [min_s(r, q) for r, q, _ in points],
            "n_thermal": [feas.thermal_occupation(frequency_hz, t) for _, _, t in points],
            "suppression": [feas.thermal_suppression(kappa_hz, gamma_c_hz)] * len(points),
        }
        for name, values in expected.items():
            assert cols[name].tolist() == values, name

    def test_fixed_ratio_sets_theta_for_t_pi_and_min_s(self, tmp_path):
        # theta_hz beside a fixed ratio: both outputs take theta = ratio * kappa
        code, out = run(tmp_path, "sweep", {
            "outputs": ["t_pi_s", "min_s"], "r_values": [1.2], "theta_over_kappa": 2.0,
            "theta_hz": 9e3, "kappa_hz": 7e3,
        })
        assert code == 0
        _, cols = read_csv(out / "sweep.csv")
        kappa = 2.0 * math.pi * 7e3
        c = EffectiveCouplings.from_theta_r(2.0 * kappa, 1.2)
        grid = spec.default_omega_grid(2.0 * kappa, kappa, 2001)
        min_s = float(np.min(spec.squeezing_spectrum(c, DecayRates.cavities(kappa), grid).s_plus))
        assert cols["t_pi_s"].tolist() == [1.0 / (2.0 * 2.0 * 7000.0)]
        assert cols["min_s"].tolist() == [min_s]

    def test_empty_grid_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", {"outputs": ["epsilon"], "r_values": []})
        assert code == 2

    def test_no_axes_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", {"outputs": ["epsilon"]})
        assert code == 2


class TestFeasibilityCommand:
    def test_preset_payload(self, tmp_path):
        code, out = run(tmp_path, "feasibility", {
            "temperature_k": 0.1, "gamma_a_hz": 1e6,
        })
        assert code == 0
        payload = json.loads((out / "feasibility.json").read_text())
        assert payload["rb_preset"]["t_pi_s"] == pytest.approx(50e-6)
        assert payload["thermal"]["n_thermal"] == pytest.approx(0.0392, abs=1e-4)
        assert 0 < payload["thermal"]["thermal_suppression"] < 1

    @pytest.mark.parametrize("command,config,read", [
        # hbar omega / kB T ~ 819, past expm1's overflow at ~709.78
        ("feasibility", {"temperature_k": 0.0004},
         lambda out: json.loads((out / "feasibility.json").read_text())["thermal"]["n_thermal"]),
        # kB T underflows to 0
        ("feasibility", {"temperature_k": 5e-324},
         lambda out: json.loads((out / "feasibility.json").read_text())["thermal"]["n_thermal"]),
        ("sweep", {"outputs": ["n_thermal"], "temperature_k_values": [1e-9], "frequency_hz": 6.83e9},
         lambda out: read_csv(out / "sweep.csv")[1]["n_thermal"][0]),
    ], ids=["feasibility-expm1-overflow", "feasibility-kt-underflow", "sweep-n-thermal-expm1-overflow"])
    def test_cold_limit_has_no_thermal_photons(self, tmp_path, capsys, command, config, read):
        code, out = run(tmp_path, command, config)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert read(out) == 0.0

    def test_overflowing_absorption_rate_is_a_numerical_error(self, tmp_path, capsys):
        # g^2 / gamma_a overflows for a subnormal gamma_a: no JSON with Infinity is written
        code, out = run(tmp_path, "feasibility", {"temperature_k": 0.1, "gamma_a_hz": 5e-324})
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not (out / "feasibility.json").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        configs = [
            ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 10e3, "num_samples": 41}),
            ("spectrum", {"r": 1.1, "theta_over_kappa": 1.0, "kappa_hz": 7e3, "num_points": 201}),
            ("sweep", {"outputs": ["epsilon"], "r_values": [1.05, 1.1]}),
        ]
        for command, cfg in configs:
            _, out1 = run(tmp_path, command, cfg, name=f"{command}1.json", outdir=f"{command}_a")
            _, out2 = run(tmp_path, command, cfg, name=f"{command}2.json", outdir=f"{command}_b")
            files1 = sorted(p.name for p in out1.iterdir())
            files2 = sorted(p.name for p in out2.iterdir())
            assert files1 == files2
            for name in files1:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_missing_config_file(tmp_path, capsys):
    code = main(["evolve", str(tmp_path / "absent.json"), "--output-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("prepare", [
    lambda cfg, out: cfg.write_bytes(b"\xff\xfe{}"),
    lambda cfg, out: cfg.mkdir(),
    lambda cfg, out: cfg.write_bytes(b"[" * 100_000),
    lambda cfg, out: cfg.write_bytes(b'{"num_samples": ' + b"1" * 5000 + b"}"),
    lambda cfg, out: (cfg.write_text(json.dumps({"r": 1.1, "theta_hz": 1e4, "num_samples": 41})), out.touch()),
    lambda cfg, out: cfg.write_bytes(b"[1, 2]"),
    lambda cfg, out: cfg.write_bytes(b'{"route": '),
    lambda cfg, out: None,
], ids=["not-utf8", "config-is-a-directory", "nested-too-deep", "integer-over-digit-limit",
        "output-dir-is-a-file", "array-root", "truncated-json", "missing-file"])
def test_unreadable_config_or_output_path_is_a_configuration_error(tmp_path, capsys, prepare):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    prepare(cfg, out)
    code = main(["evolve", str(cfg), "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("run_manifest.json"))


_SPECTRUM_BASE = {"r": 1.1, "theta_over_kappa": 1.0, "kappa_hz": 7e3, "num_points": 101}


@pytest.mark.parametrize("command,config", [
    ("evolve", {"r": 0.5, "theta_hz": 1e4}),
    ("evolve", {"route": "fock", "r": 3.0, "theta_hz": 1e4, "dims": [0, 3, 3]}),
    ("evolve", {"route": "all", "r": 3.0, "theta_hz": 1e4, "dims": [0, 3, 3]}),
    ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "dims": [0, 3, 3]}),
    ("evolve", {"route": "analytic", "r": 1.1, "theta_hz": 1e4, "dims": [0, 3, 3]}),
    ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "output_format": "parquet"}),
    # 2 pi times a finite rate overflows to inf
    ("spectrum", {"gamma_s_hz": 1.7976931348623157e+308, "kappa_hz": 1e-300, "xi2_hz": 1e-300}),
    # theta t overflows, so the closed form's cos(theta t) is undefined
    ("evolve", {"route": "analytic", "r": 3.0, "theta_hz": 1e4, "t_final_over_t_pi": 1.7976931348623157e+308}),
    # 21 samples cannot be distinct below a final time of a few subnormals
    ("evolve", {"route": "fock", "r": 3.0, "theta_hz": 1e4, "dims": [8, 8, 5], "num_samples": 21, "t_final_s": 5e-324}),
    ("spectrum", {**_SPECTRUM_BASE, "r": 0.9}),
    ("spectrum", {**_SPECTRUM_BASE, "gamma_s_hz": -5}),
    ("spectrum", {**_SPECTRUM_BASE, "output_format": "parquet"}),
    ("feasibility", {"output_format": "parquet"}),
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "t_final_s": math.inf}),
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "t_final_s": math.nan}),
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "t_final_over_t_pi": math.nan}),
    ("evolve", {"r": 1e300, "theta_hz": 1e4}),
    ("sweep", {"outputs": ["epsilon"], "r_values": ["a"]}),
    ("sweep", {"outputs": ["epsilon"], "r_values": [0.5]}),
    ("sweep", {"outputs": ["epsilon"], "r_values": [math.nan]}),
    ("sweep", {"outputs": ["min_s"], "r_values": [1.1], "theta_over_kappa": -1, "kappa_hz": 7e3}),
    ("sweep", {"outputs": ["n_thermal"], "temperature_k_values": [-1], "frequency_hz": 6.8e9}),
    ("sweep", {"outputs": ["suppression"], "r_values": [1.1], "kappa_hz": 0, "gamma_c_hz": 1e3}),
    ("sweep", {"outputs": ["t_pi_s"], "r_values": [1.1], "theta_hz": 0}),
    ("sweep", {"outputs": ["t_pi_s"], "r_values": [1.1], "theta_hz": math.nan}),
    ("feasibility", {"temperature_k": -1}),
    ("feasibility", {"temperature_k": 0}),
    ("feasibility", {"temperature_k": 0.1, "gamma_a_hz": -5}),
    # grid sizes numpy refuses before allocating anything: 10**15 float64
    # values (7 PiB) exceed the address space, the larger two overflow its size
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "num_samples": 10**15}),
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "num_samples": 2**62}),
    ("evolve", {"r": 1.1, "theta_hz": 1e4, "num_samples": 10**30}),
    ("spectrum", {**_SPECTRUM_BASE, "num_points": 10**15 + 1}),
    ("spectrum", {**_SPECTRUM_BASE, "num_points": 10**30 + 1}),
    # a coupling rate whose square overflows a double (theta and the closed form square it)
    ("spectrum", {"xi1_hz": 1, "xi2_hz": 1e160, "kappa_hz": 7000, "num_points": 101}),
    ("spectrum", {**_SPECTRUM_BASE, "theta_over_kappa": 1e160}),
    ("evolve", {"xi1_hz": 1, "xi2_hz": 1e160}),
    ("evolve", {"route": "analytic", "xi1_hz": 1, "xi2_hz": 1e160, "t_final_s": 1e-3}),
    ("evolve", {"r": 1.1, "theta_hz": 1e160}),
    ("sweep", {"outputs": ["min_s"], "r": 1.1, "theta_over_kappa_values": [1e160], "kappa_hz": 7e3}),
    # rates so small that |xi2|^2 - |xi1|^2 underflows, so theta and 1 / T_pi are 0
    ("evolve", {"xi1_hz": 1e-200, "xi2_hz": 2e-200}),
    ("evolve", {"r": 1.1, "theta_hz": 1e-300}),
    # a cavity cutoff of ~2e17 photons, where log(2r / (1 + r^2)) rounds to 0
    ("evolve", {"route": "fock", "r": 1.00000001, "theta_hz": 1e4}),
    # a charge lattice of 5e17 states, refused from its closed-form size; and a
    # six-state lattice whose composite indices would overflow 64 bits
    ("evolve", {"route": "fock", "r": 3.0, "theta_hz": 1e4, "dims": [10**9] * 3}),
    ("evolve", {"route": "fock", "r": 3.0, "theta_hz": 1e4, "dims": [3, 3, 10**19]}),
    # one half of a coupling pair, or both pairs at once
    ("spectrum", {"r": 1.1, "kappa_hz": 7e3}),
    ("spectrum", {"theta_over_kappa": 1.0, "kappa_hz": 7e3}),
    ("spectrum", {**_SPECTRUM_BASE, "xi1_hz": 1e3}),
    ("evolve", {"r": 1.1}),
    # a sweep output without a key it reads
    ("sweep", {"outputs": ["t_pi_s"], "theta_over_kappa_values": [1.0], "theta_hz": 1e4}),
    ("sweep", {"outputs": ["min_s"], "r_values": [1.1], "kappa_hz": 7e3}),
    ("sweep", {"outputs": ["n_thermal"], "r_values": [1.1], "frequency_hz": 6.8e9}),
    # r beside a raw pair; t_pi_s beside a fixed ratio, which it follows, without kappa_hz
    ("spectrum", {"r": 1.1, "xi1_hz": 1e3, "xi2_hz": 3e3, "kappa_hz": 7e3, "num_points": 101}),
    ("sweep", {"outputs": ["t_pi_s"], "r_values": [1.2], "theta_over_kappa": 2.0, "theta_hz": 9e3}),
    # an absorption rate with no temperature, whose thermal block it belongs to; a repeated output
    ("feasibility", {"gamma_a_hz": 1e6}),
    ("sweep", {"outputs": ["epsilon", "epsilon"], "r_values": [1.5]}),
    # a fock truncation on a route without one; a key validate no longer has
    ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "dims": [4, 4, 4]}),
    ("evolve", {"route": "analytic", "r": 1.1, "theta_hz": 1e4, "dims": [4, 4, 4]}),
    ("validate", {"include_adiabatic": False}),
], ids=["evolve-r-below-1", "evolve-fock-bad-dims", "evolve-all-bad-dims",
        "evolve-gaussian-bad-dims", "evolve-analytic-bad-dims",
        "evolve-output-format", "spectrum-gamma-s-overflow", "evolve-theta-t-overflow",
        "evolve-t-final-subnormal", "spectrum-r-below-1", "spectrum-negative-gamma-s",
        "spectrum-output-format", "feasibility-output-format",
        "evolve-t-final-inf", "evolve-t-final-nan", "evolve-t-over-t-pi-nan", "evolve-r-1e300",
        "sweep-r-string", "sweep-r-below-1", "sweep-r-nan",
        "sweep-min-s-negative-theta", "sweep-negative-temperature", "sweep-suppression-zero-kappa",
        "sweep-t-pi-zero-theta", "sweep-t-pi-nan-theta", "feasibility-negative-temperature",
        "feasibility-zero-temperature", "feasibility-negative-gamma-a",
        "evolve-samples-1e15", "evolve-samples-2e62", "evolve-samples-1e30",
        "spectrum-points-1e15", "spectrum-points-1e30",
        "spectrum-raw-xi-overflow", "spectrum-theta-overflow", "evolve-gaussian-xi-overflow",
        "evolve-analytic-xi-overflow", "evolve-theta-overflow", "sweep-theta-overflow",
        "evolve-xi-underflow", "evolve-theta-underflow", "evolve-fock-r-near-1",
        "evolve-fock-dims-1e9", "evolve-fock-index-overflow",
        "spectrum-r-without-ratio", "spectrum-ratio-without-r", "spectrum-ratio-and-xi",
        "evolve-r-without-theta", "sweep-t-pi-ratio-axis-no-kappa", "sweep-min-s-no-ratio",
        "sweep-n-thermal-no-temperature", "spectrum-r-and-xi", "sweep-t-pi-fixed-ratio-no-kappa",
        "feasibility-gamma-a-without-temperature", "sweep-repeated-output",
        "evolve-gaussian-dims", "evolve-analytic-dims", "validate-include-adiabatic"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, command, config):
    code, _ = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command,config,names", [
    ("feasibility", {"gamma_a_hz": 1e6}, ("'gamma_a_hz'", "'temperature_k'")),
    ("sweep", {"outputs": ["epsilon", "epsilon"], "r_values": [1.5]}, ("'epsilon'",)),
    ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "dims": [4, 4, 4]}, ("'dims'", "'gaussian'")),
    ("evolve", {"route": "analytic", "r": 1.1, "theta_hz": 1e4, "dims": [4, 4, 4]}, ("'dims'", "'analytic'")),
], ids=["feasibility-gamma-a-without-temperature", "sweep-repeated-output",
        "evolve-gaussian-dims", "evolve-analytic-dims"])
def test_refusal_names_its_keys_and_writes_nothing(tmp_path, capsys, command, config, names):
    code, out = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 2
    assert all(name in err for name in names)
    assert not out.exists() or not any(out.iterdir())


def test_oversized_r_is_named_in_the_message(tmp_path, capsys):
    # r^2 overflows, so xi1 = theta / sqrt(r^2 - 1) is 0: the message names r, not |xi1|
    code, _ = run(tmp_path, "evolve", {"r": 1e300, "theta_hz": 1e4})
    assert code == 2
    assert "r = 1e+300 is too large" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,module,name", [
    ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "num_samples": 41}, mom, "evolve_moments"),
    ("spectrum", _SPECTRUM_BASE, spec, "squeezing_spectrum"),
], ids=["evolve-moments", "spectrum-densities"])
def test_grid_too_large_to_propagate_is_a_configuration_error(tmp_path, capsys, monkeypatch,
                                                              command, config, module, name):
    # numpy samples 20 000 001 times or 40 000 001 frequencies, then cannot allocate
    # their propagation (10.7 and 14.3 GiB); raised here without allocating, since a
    # machine that overcommits could grant the memory lazily and then kill the run
    message = "Unable to allocate 10.7 GiB for an array with shape (20000001, 6, 6) and data type complex128"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, refuse)
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "run_manifest.json").exists()


def test_cli_import_loads_no_scipy_submodule():
    src = Path(mwsqueeze.__file__).resolve().parent.parent
    probe = (
        "import sys, mwsqueeze.cli; "
        "print([m for m in ('scipy.sparse', 'scipy.linalg', 'scipy.special') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_gaussian_and_spectrum_runs_load_no_scipy(tmp_path):
    # the closed gaussian propagator and the spectrum's resolvent polynomials are numpy only
    src = Path(mwsqueeze.__file__).resolve().parent.parent
    (tmp_path / "e.json").write_text(json.dumps({"route": "all", "r": 1.01, "theta_hz": 1e4}))
    (tmp_path / "s.json").write_text(json.dumps(_SPECTRUM_BASE))
    probe = (
        "import sys; from mwsqueeze.cli import main; "
        "assert main(['evolve', 'e.json', '--output-dir', 'o']) == 0; "
        "assert main(['spectrum', 's.json', '--output-dir', 'o']) == 0; "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_fock_route_loads_no_scipy(tmp_path):
    # the charge-lattice build and its SVD are numpy only
    src = Path(mwsqueeze.__file__).resolve().parent.parent
    (tmp_path / "e.json").write_text(json.dumps({"route": "fock", "r": 3.0, "theta_hz": 1e4, "num_samples": 41}))
    probe = (
        "import sys; from mwsqueeze.cli import main; "
        "assert main(['evolve', 'e.json', '--output-dir', 'o']) == 0; "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_validate_loads_no_scipy(tmp_path):
    # the fock layer's operators are index-arithmetic entries and slices of the amplitudes
    src = Path(mwsqueeze.__file__).resolve().parent.parent
    (tmp_path / "v.json").write_text(json.dumps({}))
    (tmp_path / "c.json").write_text(json.dumps({"corrupt_hamiltonian_sign": True}))
    probe = (
        "import sys; from mwsqueeze.cli import main; "
        "assert main(['validate', 'v.json', '--output-dir', 'v']) == 0; "
        "assert main(['validate', 'c.json', '--output-dir', 'c']) == 1; "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestCsvWriter:
    def test_bytes_match_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2,
                  np.float64(1.0) / 3.0, np.float64(-2.5e-310), 1.0, 123456789.0]
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c", "d"], np.array(values).reshape(2, 4))
        lines = [",".join(format(x, ".17g") for x in values[i:i + 4]) for i in (0, 4)]
        assert path.read_bytes() == ("a,b,c,d\n" + "\n".join(lines) + "\n").encode("ascii")

    @staticmethod
    def _assert_per_value_bytes(tmp_path, rows):
        rows = np.asarray(rows, dtype=float)
        header = [f"c{j}" for j in range(rows.shape[1])]
        path = tmp_path / "out.csv"
        write_csv(path, header, rows)
        lines = [",".join(header)] + [",".join(format(x, ".17g") for x in row) for row in rows.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    def test_random_bit_patterns(self, tmp_path):
        values = np.random.default_rng(20).integers(0, 2**64, 201_000, dtype=np.uint64).view(np.float64)
        self._assert_per_value_bytes(tmp_path, values[np.isfinite(values)][:200_000].reshape(-1, 8))

    def test_powers_of_ten_and_window_edges(self, tmp_path):
        # 1e-6 and 1e16 bound the cells formatted by exact arithmetic; the
        # decimal exponent switches notation at 1e-5 and 1e-4
        anchors = np.array([float(f"1e{j}") for j in range(-30, 31)] + [1e-6, 1e16, 1e-5, 1e-4])
        values = np.concatenate([anchors, np.nextafter(anchors, 0.0), np.nextafter(anchors, np.inf)])
        self._assert_per_value_bytes(tmp_path, np.concatenate([values, -values]).reshape(-1, 3))

    def test_ties_round_half_to_even(self, tmp_path):
        # for odd m > 2**17, m / 2**17 (1 to 3.05) has 18 significant digits, the
        # last a 5: a tie at 17 digits
        values = np.arange(1, 400_000, 2) / 2.0**17
        self._assert_per_value_bytes(tmp_path, values.reshape(-1, 4))
        assert "1.0000076293945312" in (tmp_path / "out.csv").read_text()

    def test_integers(self, tmp_path):
        self._assert_per_value_bytes(tmp_path, np.arange(100_001.0).reshape(-1, 1))

    def test_blocks_and_one_by_one_cells(self, tmp_path):
        # 5 000 rows cross two block boundaries; zeros and subnormals sit at a
        # block's last and next block's first cell and at row ends
        rows = np.random.default_rng(5).standard_normal((5000, 6)) * 10.0 ** np.arange(-8, 10, 3)
        rows[2047, -1], rows[2048, 0], rows[4095, 5], rows[4999, -1] = 0.0, -0.0, 1e-310, 1e-7
        rows[0, :] = 0.0
        self._assert_per_value_bytes(tmp_path, rows)
        self._assert_per_value_bytes(tmp_path, rows[:, :1])
        self._assert_per_value_bytes(tmp_path, rows[2047:2048])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refuses_the_whole_array(self, tmp_path, bad):
        rows = np.ones((3, 2))
        rows[2, 1] = bad
        path = tmp_path / "out.csv"
        with pytest.raises(NumericalError):
            write_csv(path, ["a", "b"], rows)
        assert not path.exists()

    # 1 / (2 theta_hz) overflows to inf for a subnormal theta_hz (a NaN theta_hz
    # is a configuration error: test_malformed_config_is_a_configuration_error)
    @pytest.mark.parametrize("theta_hz", [1e-320], ids=["inf"])
    def test_non_finite_output_is_a_numerical_error(self, tmp_path, capsys, theta_hz):
        code, out = run(tmp_path, "sweep", {
            "outputs": ["t_pi_s"], "r_values": [1.1], "theta_hz": theta_hz,
        })
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: ")
        assert "Traceback" not in err
        assert not (out / "sweep.csv").exists()


def _scalar_wick(V):
    """zeta12 of one moment matrix in Python scalars: libm hypot for abs, pow for the squares."""
    n1, n2 = V[1, 1].real, V[3, 3].real
    if n1 + n2 < 1e-14:
        return 1.0
    sq = [abs(complex(V[j, k])) ** 2 for j, k in ((0, 1), (2, 3), (0, 3), (1, 3))]
    num = n1 * (n1 + 1.0) + n2 * (n2 + 1.0) + sq[0] + sq[1] - 2.0 * sq[2] - 2.0 * sq[3]
    return float(num / (n1 + n2))


class TestArrayRowsKeepPerSampleBits:
    """Columns computed on whole arrays carry the bits of the per-sample arithmetic."""

    def test_gaussian_zeta12(self, tmp_path):
        code, out = run(tmp_path, "evolve", {
            "route": "gaussian", "r": 1.001, "theta_hz": 1e4, "num_samples": 2001,
        })
        assert code == 0
        _, cols = read_csv(out / "evolve_gaussian.csv")
        c = EffectiveCouplings.from_theta_r(2.0 * math.pi * 1e4, 1.001)
        times = np.linspace(0.0, 2.0 * cf.t_pi(c), 2001)
        Vs = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), times)
        assert cols["zeta12"].tolist() == [mom.zeta12_from_moments(V) for V in Vs]
        assert cols["zeta12"].tolist() == [_scalar_wick(V) for V in Vs]
        # any (..., 6, 6) stack: an (a, b, 6, 6) grid of the same samples keeps their bits
        grid = Vs.reshape(69, 29, 6, 6)
        assert mom.zeta12_from_moments(grid).shape == (69, 29)
        assert mom.zeta12_from_moments(grid).tobytes() == mom.zeta12_from_moments(Vs).tobytes()
        assert mom.occupations_from_moments(grid).shape == (69, 29, 3)
        assert mom.occupations_from_moments(grid).tobytes() == mom.occupations_from_moments(Vs).tobytes()

    @pytest.mark.parametrize("r,samples", [(1.001, 2001), (4.0, 161)])
    def test_route_all_summary(self, tmp_path, r, samples):
        code, out = run(tmp_path, "evolve", {
            "route": "all", "r": r, "theta_hz": 1e4, "num_samples": samples,
        })
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        c = EffectiveCouplings.from_theta_r(2.0 * math.pi * 1e4, r)
        rows = {}
        for name in summary["routes"]:
            _, cols = read_csv(out / f"evolve_{name}.csv")
            rows[name] = list(zip(*(cols[k].tolist() for k in ("n1", "n2", "n3", "zeta12"))))
        ts = read_csv(out / "evolve_analytic.csv")[1]["t_seconds"].tolist()
        assert rows["analytic"] == [(*cf.occupations_closed_form(c, t), cf.zeta12_closed_form(c, t))
                                    for t in ts]
        for a, b in ((a, b) for a in rows for b in rows if a < b):
            occ = zeta = 0.0
            excluded = 0
            for x, y in zip(rows[a], rows[b]):
                occ = max(occ, *(abs(x[i] - y[i]) for i in range(3)))
                if max(x[0] + x[1], y[0] + y[1]) < 1e-8:
                    excluded += 1
                else:
                    zeta = max(zeta, abs(x[3] - y[3]))
            assert excluded > 0
            assert summary["discrepancies"][f"{a}_vs_{b}"] == {
                "max_occupation_discrepancy": occ,
                "max_zeta12_discrepancy": zeta,
                "zeta12_samples_excluded_near_vacuum": excluded,
            }
