"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.

Criteria 5 and 7 are implemented exactly as stated and are expected to fail
for reasons that are provable properties of the model rather than
implementation defects; each has a companion diagnostic that runs the
identical protocol at tail-conformant truncation / with the spin-loss knob
and passes:

* criterion 5 pins the spin truncation at 8 levels while the spin marginal
  of the evolved state is thermal with mean up to 1/3, whose tail beyond
  level 7 is 4^-8 ~ 1.5e-5, two orders above the 1e-6 tolerances;
* criterion 7 expects the squeezing-spectrum minima to merge and reorder
  with the cavity linewidth while the undamped spin pins S(0) to
  ((r-1)/(r+1))^2 identically for every theta/kappa, so the three runs tie.
"""

import json
import math
import warnings

import numpy as np
import pytest

from mwsqueeze import closed_form as cf
from mwsqueeze import feasibility as fz
from mwsqueeze import fixtures
from mwsqueeze import fock_dynamics as fdyn
from mwsqueeze import moments as mom
from mwsqueeze import raman
from mwsqueeze import spectrum as spec
from mwsqueeze.cli import main as cli_main
from mwsqueeze.errors import TruncationWarning
from mwsqueeze.fock import ModeLayout, vacuum_state
from mwsqueeze.params import DecayRates, EffectiveCouplings

from fock_csr import conserved_number
from fock_embed import embedded

TWO_PI = 2 * math.pi


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    return passed


# ---------------------------------------------------------------------------
# shared expensive runs


def _fock_run(spin_dim):
    c = EffectiveCouplings.from_theta_r(1.0, 2.0)
    lay = ModeLayout((64, 64, spin_dim))
    H = fdyn.build_effective_hamiltonian(c, lay)
    tpi = cf.t_pi(c)
    times = np.linspace(0.0, 2 * tpi, 161)  # sample 80 is exactly t_pi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        traj = fdyn.evolve_state(H, vacuum_state(lay), times)

    occ_dev = 0.0
    fid_min = 1.0
    for k, (t, occ, st) in enumerate(zip(traj.times, traj.occupations, embedded(traj, lay))):
        ref = cf.occupations_closed_form(c, t)
        occ_dev = max(occ_dev, max(abs(a - b) for a, b in zip(occ, ref)))
        ana = fdyn.analytic_state(c, t, lay, tail_tol=1.0)
        fid_min = min(fid_min, abs(np.vdot(ana, st)) ** 2)
        if k == 80:
            st_pi = st
    return {
        "couplings": c,
        "layout": lay,
        "traj": traj,
        "occ_dev": occ_dev,
        "fid_min": fid_min,
        "tmss_fidelity": fdyn.fidelity_with_target(st_pi, lay, 2.0),
        "n3_at_t_pi": traj.occupations[80][2],
    }


@pytest.fixture(scope="module")
def r2_run_stated():
    return _fock_run(8)


@pytest.fixture(scope="module")
def r2_run_conformant():
    # spin dimension from the tail < 1e-10 rule: ceil(ln 1e-10 / (-2 ln 2)) + 1
    return _fock_run(cf.suggest_spin_cutoff(2.0) + 1)


def _spectrum_runs(gamma_s_over_kappa=0.0):
    out = {}
    kappa = 1.0
    for ratio in (10.0, 1.0, 0.1):
        c = EffectiveCouplings.from_theta_r(ratio * kappa, 1.1)
        d = DecayRates(kappa1=kappa, kappa2=kappa, gamma_s=gamma_s_over_kappa * kappa)
        grid = spec.default_omega_grid(c.theta, kappa)
        out[ratio] = (c, d, spec.squeezing_spectrum(c, d, grid), grid)
    return out


@pytest.fixture(scope="module")
def spectrum_runs():
    return _spectrum_runs(0.0)


# ---------------------------------------------------------------------------


def test_criterion_01_squeezing_degree():
    eps = cf.squeezing_parameter(1.1)
    ok = abs(eps - 3.04) <= 0.01
    assert report(1, "squeezing_parameter(1.1) = 3.04 +- 0.01", ok, f"measured {eps:.6f}")


def test_criterion_02_photon_number():
    c = EffectiveCouplings.from_theta_r(1.0, 1.1)
    tpi = cf.t_pi(c)
    n1_a, n2_a, _ = cf.occupations_closed_form(c, tpi)
    V = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), [tpi])[0]
    n1_g, n2_g, _ = mom.occupations_from_moments(V)
    ok = all(abs(v - 109.75) <= 0.01 for v in (n1_a, n2_a, n1_g, n2_g))
    assert report(
        2,
        "n1 = n2 = 109.75 +- 0.01 at T_pi (analytic and gaussian routes)",
        ok,
        f"analytic {n1_a:.4f}, gaussian {n1_g:.4f}",
    )


def test_criterion_03_preparation_time():
    c = EffectiveCouplings.from_theta_r(TWO_PI * 10e3, 1.1)
    t = cf.t_pi(c)
    ok = abs(t - 50e-6) <= 0.001 * 50e-6
    assert report(3, "T_pi = 50.0 us +- 0.1% at theta/2pi = 10 kHz", ok, f"measured {t * 1e6:.4f} us")


def test_criterion_04_relative_number_squeezing_dips():
    worst_dip = 0.0
    worst_sym = 0.0
    starts_ok = True
    for r in (1.01, 1.05, 1.1):
        c = EffectiveCouplings.from_theta_r(1.0, r)
        tpi = cf.t_pi(c)
        times = np.linspace(0.0, 2 * tpi, 81)  # odd count: sample 40 is t_pi
        Vs = mom.evolve_moments(mom.drift_matrix(c), mom.vacuum_moments(), times)
        zeta = [mom.zeta12_from_moments(V) for V in Vs]
        starts_ok = starts_ok and zeta[0] == 1.0
        worst_dip = max(worst_dip, abs(zeta[40]))
        for k in range(1, 40):
            worst_sym = max(worst_sym, abs(zeta[40 - k] - zeta[40 + k]))
    ok = starts_ok and worst_dip <= 1e-8 and worst_sym <= 1e-6
    assert report(
        4,
        "gaussian zeta12 starts at 1, dips <= 1e-8 at T_pi, symmetric to 1e-6 (r = 1.01, 1.05, 1.1)",
        ok,
        f"worst dip {worst_dip:.2e}, worst asymmetry {worst_sym:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="spin dimension 8 leaves a 1.5e-5 thermal spin tail at r = 2; the"
    " 1e-6 occupation/fidelity/atomic-occupation tolerances are unattainable"
    " at the stated truncation (see the conformant-truncation diagnostic)",
)
def test_criterion_05_route_equivalence_as_stated(r2_run_stated):
    run = r2_run_stated
    ok = (
        run["occ_dev"] <= 1e-6
        and run["fid_min"] >= 1 - 1e-6
        and run["tmss_fidelity"] >= 0.999
        and run["n3_at_t_pi"] <= 1e-6
    )
    report(
        5,
        "route equivalence at r = 2, dims (64, 64, 8), tolerances as stated",
        ok,
        f"occ dev {run['occ_dev']:.2e} (<=1e-6), 1-min fidelity {1 - run['fid_min']:.2e}"
        f" (<=1e-6), tmss fidelity {run['tmss_fidelity']:.6f} (>=0.999),"
        f" n3(T_pi) {run['n3_at_t_pi']:.2e} (<=1e-6)",
    )
    assert ok


def test_criterion_05_diagnostic_conformant_truncation(r2_run_conformant):
    run = r2_run_conformant
    ok = (
        run["occ_dev"] <= 1e-6
        and run["fid_min"] >= 1 - 1e-6
        and run["tmss_fidelity"] >= 0.999
        and run["n3_at_t_pi"] <= 1e-6
    )
    assert report(
        "5-diagnostic",
        f"identical protocol at tail-conformant spin dim {run['layout'].dims[2]}",
        ok,
        f"occ dev {run['occ_dev']:.2e}, 1-min fidelity {1 - run['fid_min']:.2e},"
        f" tmss fidelity {run['tmss_fidelity']:.8f}, n3(T_pi) {run['n3_at_t_pi']:.2e}",
    )


def test_criterion_06_conservation(r2_run_stated):
    traj = r2_run_stated["traj"]
    N = conserved_number(r2_run_stated["layout"])
    worst = 0.0
    for psi in embedded(traj, r2_run_stated["layout"]):
        worst = max(
            worst,
            abs(np.vdot(psi, N @ psi).real),
            abs(np.vdot(psi, N @ (N @ psi)).real),
        )
    norm_dev = max(abs(n - 1.0) for n in traj.norms)
    ok = worst <= 1e-8 and norm_dev <= 1e-8
    assert report(
        6,
        "<N> and <N^2> <= 1e-8 along the r = 2 trajectory; norms within 1e-8",
        ok,
        f"worst conserved-number moment {worst:.2e}, norm deviation {norm_dev:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="with the spin undamped the spin response is rigid at w = 0 and at"
    " w = +-theta, pinning S there to ((r-1)/(r+1))^2 for every theta/kappa:"
    " the theta = kappa run keeps three minima and the three minima tie, so"
    " the merge and strict-ordering clauses cannot hold (see diagnostic)",
)
def test_criterion_07_spectrum_regimes_as_stated(spectrum_runs):
    c10, d10, res10, grid10 = spectrum_runs[10.0]
    c1, d1, res1, _ = spectrum_runs[1.0]
    c01, d01, res01, _ = spectrum_runs[0.1]
    step10 = grid10[1] - grid10[0]

    locs = sorted(w for w, _ in res10.minima)
    clause_a = (
        res10.regime_label == "three-minima"
        and len(locs) == 3
        and abs(locs[0] + c10.theta) <= step10
        and abs(locs[1]) <= step10
        and abs(locs[2] - c10.theta) <= step10
    )
    min10, min1, min01 = (float(np.min(r.s_plus)) for r in (res10, res1, res01))
    clause_b = res1.regime_label == "single-broad" and min1 < min10 and min1 < min01
    clause_c = res01.regime_label == "narrow" and min01 > min1
    calib = spec.squeezing_spectrum(None, d1, spec.default_omega_grid(c1.theta, 1.0, 201))
    calib_dev = float(np.max(np.abs(calib.s_plus - 1.0)))
    clause_d = calib_dev <= 1e-10

    ok = clause_a and clause_b and clause_c and clause_d
    report(
        7,
        "squeezing-spectrum regimes as stated (three minima / merged broad / narrow, ordered)",
        ok,
        f"10k: {res10.regime_label} at {[round(w, 3) for w in locs]}, min {min10:.6f};"
        f" k: {res1.regime_label} ({len(res1.minima)} minima), min {min1:.6f};"
        f" 0.1k: {res01.regime_label}, min {min01:.6f}; calibration dev {calib_dev:.1e}",
    )
    assert ok


def test_criterion_07_diagnostic_regime_physics(spectrum_runs):
    # (i) the provable gamma_s = 0 property behind the tie: S(0) equals
    # ((r-1)/(r+1))^2 for every theta/kappa ratio
    ideal = (0.1 / 2.1) ** 2
    pinned = True
    for ratio, (c, d, res, grid) in spectrum_runs.items():
        center = res.s_plus[len(grid) // 2]
        pinned = pinned and abs(center - ideal) <= 1e-9
    # (ii) with spin loss enabled the claimed merge and degradation appear
    lossy = _spectrum_runs(gamma_s_over_kappa=1.0)
    merged = lossy[1.0][2].regime_label == "single-broad"
    three = lossy[10.0][2].regime_label == "three-minima"
    degraded = float(np.min(lossy[0.1][2].s_plus)) > float(np.min(lossy[1.0][2].s_plus))
    ok = pinned and merged and three and degraded
    assert report(
        "7-diagnostic",
        "gamma_s = 0 pins S(0) to the ideal value at every ratio; spin loss"
        " restores the merge and the narrow-regime degradation",
        ok,
        f"pinned {pinned}, lossy labels: 10k={lossy[10.0][2].regime_label},"
        f" k={lossy[1.0][2].regime_label}, 0.1k={lossy[0.1][2].regime_label}",
    )


def test_criterion_08_spectrum_sanity(spectrum_runs):
    worst_sym = 0.0
    for _, (_, _, res, _) in spectrum_runs.items():
        worst_sym = max(worst_sym, float(np.max(np.abs(res.s_plus - res.s_plus[::-1]))))
        worst_sym = max(worst_sym, float(np.max(np.abs(res.s_minus - res.s_minus[::-1]))))
    c, d, _, _ = spectrum_runs[1.0]
    M = mom.drift_matrix(c, d)
    D = mom.diffusion_matrix(d)
    V_time = mom.evolve_moments(M, mom.vacuum_moments(), [80.0], diffusion=D)[0]
    V_spec = spec.spectral_moment_integral(c, d, omega_max=80.0, points=16001)
    parseval = float(np.max(np.abs(V_spec - V_time)) / np.max(np.abs(V_time)))
    ok = worst_sym <= 1e-8 and parseval <= 0.01
    assert report(
        8,
        "S(w) = S(-w) within 1e-8; Parseval consistency within 1% (theta = kappa)",
        ok,
        f"worst asymmetry {worst_sym:.2e}, Parseval relative deviation {parseval:.4f}",
    )


def test_criterion_09_adiabatic_elimination():
    devs = {}
    for ratio in (10, 20, 40):
        rc = fixtures.adiabatic_fixture_config(ratio)
        horizon = math.pi / fixtures.adiabatic_theta(rc)
        devs[ratio], _ = raman.adiabatic_error(rc, horizon, 161, excitation_cap=2)
    within = devs[20] <= fixtures.ADIABATIC_FROZEN_DEVIATION
    monotone = devs[10] > devs[20] > devs[40]
    ok = within and monotone
    assert report(
        9,
        "full-vs-effective occupations within frozen tolerance at ratio 20;"
        " deviation monotone over ratios 10, 20, 40",
        ok,
        f"deviations {devs[10]:.4f} > {devs[20]:.4f} > {devs[40]:.4f}"
        f" (frozen bound {fixtures.ADIABATIC_FROZEN_DEVIATION})",
    )


def test_criterion_10_thermal_estimates():
    t_cross = fz.crossover_temperature(6.83e9)
    n_100mk = fz.thermal_occupation(6.83e9, 0.1)
    suppression = fz.thermal_suppression(1.0, 99.0)
    ok = (
        abs(t_cross - 0.328) <= 0.001
        and abs(t_cross - 0.35) / 0.35 <= 0.10
        and abs(n_100mk - 0.038) <= 0.002
        and n_100mk < 0.05
        and abs(suppression - 0.01) <= 1e-12
    )
    assert report(
        10,
        "crossover temperature 0.328 K (within 10% of 350 mK); n_T(100 mK) ~ 0.038 << 1;"
        " suppression(kappa, 99 kappa) = 0.01",
        ok,
        f"T* {t_cross:.4f} K, n_T {n_100mk:.5f}, suppression {suppression:.4f}",
    )


def test_criterion_11_determinism(tmp_path):
    configs = [
        ("evolve", {"route": "gaussian", "r": 1.1, "theta_hz": 10e3, "num_samples": 81}),
        ("spectrum", {"r": 1.1, "theta_over_kappa": 1.0, "kappa_hz": 7e3, "num_points": 2001}),
        ("feasibility", {"temperature_k": 0.1, "gamma_a_hz": 1e6}),
        ("sweep", {"outputs": ["epsilon", "t_pi_s"], "r_values": [1.01, 1.05, 1.1], "theta_hz": 10e3}),
    ]
    identical = True
    for command, cfg in configs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            outdir = tmp_path / f"{command}_{tag}"
            assert cli_main([command, str(cfg_path), "--output-dir", str(outdir)]) == 0
            outs.append(outdir)
        names = sorted(p.name for p in outs[0].iterdir())
        for name in names:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    assert report(11, "repeated acceptance runs produce byte-identical data files", identical)
