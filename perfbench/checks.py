"""Correctness checks on the files one CLI invocation wrote.

Every check returns a list of failure messages; an empty list is a pass.  A
check may also record a measured error in the ``measured`` dict it is given,
so that the traced run can report it as a per-layer metric.

Tolerances, with the largest error measured at the seed commit beside each:

* route agreement in ``evolve_summary.json``: occupation discrepancy of every
  route pair <= 1e-6 (the bound of the CLI test suite's cross-route test;
  seed 4.8e-11 at r = 4, 2.1e-10 at r = 3, 4.4e-9 at r = 1.01);
* gaussian occupations against :mod:`mwsqueeze.closed_form`: relative to
  max(n, 1), <= 1e-6 (seed 2.4e-8 at r = 1.001 and theta/2pi = 10 kHz, where
  zeta12 is off by 2.4e-6: reported as ``moments.zeta12_abs_err``, not gated);
* ``sweep.csv``: epsilon equals log((1 + r)/(r - 1)) to 1e-12 relative, and
  with an undamped spin min_s equals the ideal ((r - 1)/(r + 1))^2 to 1e-9
  relative (seed 1.2e-13);
* spectrum against the reference recorded at the seed commit: 1e-9 absolute
  on S+ and S-, 1e-12 relative on the frequency column, equal regime label.
  Byte identity is the test suite's gate; a batched solve may move last bits.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from itertools import product
from pathlib import Path

ROUTE_DISCREPANCY_BOUND = 1e-6
GAUSSIAN_REL_TOL = 1e-6
EPSILON_REL_TOL = 1e-12
MIN_S_REL_TOL = 1e-9
SPECTRUM_ABS_TOL = 1e-9
OMEGA_REL_TOL = 1e-12
VACUUM_CUT = 1e-8  # n1 + n2 below this: zeta12 is a 0/0 convention value


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def _couplings(r, theta_hz):
    from mwsqueeze.params import EffectiveCouplings

    return EffectiveCouplings.from_theta_r(2.0 * math.pi * theta_hz, r)


def evolve_summary(path: Path, routes, fock_skipped: bool) -> list[str]:
    """Routes present as expected and every pair within the discrepancy bound."""
    if not path.is_file():
        return [f"{path.name} missing"]
    summary = json.loads(path.read_text())
    fails = []
    if summary.get("routes") != sorted(routes):
        fails.append(f"routes {summary.get('routes')} != {sorted(routes)}")
    if ("fock_skipped" in summary) != fock_skipped:
        fails.append(f"fock_skipped present={'fock_skipped' in summary}, expected {fock_skipped}")
    expected_pairs = {f"{a}_vs_{b}" for a in routes for b in routes if a < b}
    disc = summary.get("discrepancies", {})
    if set(disc) != expected_pairs:
        fails.append(f"pairs {sorted(disc)} != {sorted(expected_pairs)}")
    for pair, d in disc.items():
        occ = d.get("max_occupation_discrepancy")
        if not isinstance(occ, (int, float)) or not occ <= ROUTE_DISCREPANCY_BOUND:
            fails.append(f"{pair} occupation discrepancy {occ} > {ROUTE_DISCREPANCY_BOUND:g}")
    return fails


def gaussian_vs_closed_form(path: Path, r, theta_hz, samples, measured) -> list[str]:
    """Gaussian occupations within tolerance of the closed form at every sample.

    Records ``moments.occ_rel_err`` and ``moments.zeta12_abs_err`` (the
    latter over samples with n1 + n2 >= 1e-8; reported, not gated).
    """
    from mwsqueeze import closed_form

    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows = read_csv(path)
    if header != ["t_seconds", "theta_t", "n1", "n2", "n3", "zeta12"] or len(rows) != samples:
        return [f"{path.name}: header {header} or {len(rows)} rows, expected {samples}"]
    c = _couplings(r, theta_hz)
    occ_err = zeta_err = 0.0
    for t, _, n1, n2, n3, z in rows:
        ref = closed_form.occupations_closed_form(c, t)
        occ_err = max(occ_err, *(abs(a - b) / max(b, 1.0) for a, b in zip((n1, n2, n3), ref)))
        if max(n1 + n2, ref[0] + ref[1]) >= VACUUM_CUT:
            zeta_err = max(zeta_err, abs(z - closed_form.zeta12_closed_form(c, t)))
    measured["moments.occ_rel_err"] = max(measured.get("moments.occ_rel_err", 0.0), occ_err)
    measured["moments.zeta12_abs_err"] = max(measured.get("moments.zeta12_abs_err", 0.0), zeta_err)
    if not occ_err <= GAUSSIAN_REL_TOL:
        return [f"{path.name}: occupation error {occ_err:.3e} > {GAUSSIAN_REL_TOL:g} (relative to max(n, 1))"]
    return []


def fock_vs_closed_form(path: Path, r, theta_hz, samples, measured) -> list[str]:
    """Records ``fock_dynamics.occ_abs_err``; the gate is the route summary."""
    from mwsqueeze import closed_form

    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows = read_csv(path)
    if len(header) != 7 or len(rows) != samples:
        return [f"{path.name}: {len(header)} columns and {len(rows)} rows, expected 7 and {samples}"]
    c = _couplings(r, theta_hz)
    err = 0.0
    for row in rows:
        ref = closed_form.occupations_closed_form(c, row[0])
        err = max(err, *(abs(a - b) for a, b in zip(row[2:5], ref)))
    measured["fock_dynamics.occ_abs_err"] = max(measured.get("fock_dynamics.occ_abs_err", 0.0), err)
    return []


def validate_report(path: Path, failing: set, n_checks: int, measured) -> list[str]:
    """Exactly the ``failing`` checks fail, out of ``n_checks``."""
    if not path.is_file():
        return [f"{path.name} missing"]
    report = json.loads(path.read_text())
    checks = report.get("checks", [])
    fails = []
    if len(checks) != n_checks:
        fails.append(f"{len(checks)} checks, expected {n_checks}")
    got = {c["name"] for c in checks if not c["passed"]}
    if got != set(failing):
        fails.append(f"failing checks {sorted(got)}, expected {sorted(failing)}")
    if report.get("failures") != len(failing):
        fails.append(f"failures = {report.get('failures')}, expected {len(failing)}")
    for c in checks:
        if c["name"] == "fock_vs_closed_form_occupations":
            measured["fock_dynamics.occ_abs_err"] = max(
                measured.get("fock_dynamics.occ_abs_err", 0.0), c["measured"])
    return fails


def sweep_csv(path: Path, r_values, ratio_values) -> list[str]:
    """Grid order, the epsilon oracle, and min_s at the undamped-spin ideal."""
    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows = read_csv(path)
    if header != ["r", "theta_over_kappa", "min_s", "epsilon"]:
        return [f"{path.name}: header {header}"]
    grid = list(product(r_values, ratio_values))
    if [tuple(row[:2]) for row in rows] != grid:
        return [f"{path.name}: grid rows do not match the requested axes"]
    fails = []
    for r, ratio, min_s, eps in rows:
        oracle = math.log((1.0 + r) / (r - 1.0))
        if not abs(eps - oracle) <= EPSILON_REL_TOL * abs(oracle):
            fails.append(f"epsilon {eps!r} != log((1+r)/(r-1)) = {oracle!r} at r={r}")
        ideal = ((r - 1.0) / (r + 1.0)) ** 2
        if not abs(min_s - ideal) <= MIN_S_REL_TOL * ideal:
            fails.append(f"min_s {min_s!r} != ideal {ideal!r} at r={r}, theta/kappa={ratio}")
    return fails


def spectrum_matches(outdir: Path, reference: Path) -> list[str]:
    """spectrum.csv and the regime label against the recorded reference."""
    for name in ("spectrum.csv", "spectrum_summary.json"):
        if not (outdir / name).is_file():
            return [f"{name} missing"]
    header, rows = read_csv(outdir / "spectrum.csv")
    ref_header, ref_rows = read_csv(reference / "spectrum.csv.gz")
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"spectrum.csv: header {header} with {len(rows)} rows, expected {len(ref_rows)}"]
    fails = []
    worst_s = worst_w = 0.0
    for (w, sp, sm), (rw, rsp, rsm) in zip(rows, ref_rows):
        worst_w = max(worst_w, abs(w - rw) / max(abs(rw), 1.0))
        worst_s = max(worst_s, abs(sp - rsp), abs(sm - rsm))
    if not worst_w <= OMEGA_REL_TOL:
        fails.append(f"spectrum.csv frequency column off by {worst_w:.3e}")
    if not worst_s <= SPECTRUM_ABS_TOL:
        fails.append(f"spectrum.csv S differs from reference by {worst_s:.3e} > {SPECTRUM_ABS_TOL:g}")
    regime = json.loads((outdir / "spectrum_summary.json").read_text()).get("regime")
    ref_regime = json.loads((reference / "spectrum_summary.json").read_text())["regime"]
    if regime != ref_regime:
        fails.append(f"regime {regime!r} != reference {ref_regime!r}")
    return fails
