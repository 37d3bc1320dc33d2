"""Each output check passes on a reference output and fails on a perturbed copy.

The files under ``data/`` and ``../reference/`` were written by the CLI at the
commit that introduced the benchmark.
"""

import gzip
import json
import shutil
from pathlib import Path

import pytest

import checks
from workloads import REFERENCE_DIR, Invocation

DATA = Path(__file__).resolve().parent / "data"
SWEEP_R = [1.1, 1.5, 2.0]
SWEEP_RATIOS = [0.5, 1.0, 5.0, 10.0]


def copy(name, tmp_path, target=None):
    dst = tmp_path / (target or name)
    shutil.copy(DATA / name, dst)
    return dst


def perturb_csv(path, row, col, fn):
    header, rows = checks.read_csv(path)
    rows[row][col] = fn(rows[row][col])
    path.write_text(",".join(header) + "\n"
                    + "".join(",".join(format(v, ".17g") for v in r) + "\n" for r in rows))


def edit_json(path, fn):
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def test_exit_code_mismatch_fails(tmp_path):
    inv = Invocation("validate", {}, 0, [lambda d, m: []])
    assert inv.check(0, tmp_path, {}) == []
    assert inv.check(1, tmp_path, {})
    assert inv.check("raised ValueError()", tmp_path, {})


def test_evolve_summary(tmp_path):
    path = copy("evolve_summary.json", tmp_path)
    routes = ["analytic", "fock", "gaussian"]
    assert checks.evolve_summary(path, routes, fock_skipped=False) == []
    assert checks.evolve_summary(path, ["analytic", "gaussian"], fock_skipped=True)
    edit_json(path, lambda p: p["discrepancies"]["analytic_vs_fock"].update(
        max_occupation_discrepancy=2e-6))
    assert checks.evolve_summary(path, routes, fock_skipped=False)


def test_gaussian_vs_closed_form(tmp_path):
    path = copy("evolve_gaussian.csv", tmp_path)
    measured = {}
    assert checks.gaussian_vs_closed_form(path, 1.1, 10000.0, 41, measured) == []
    assert 0.0 < measured["moments.occ_rel_err"] < 1e-9
    assert checks.gaussian_vs_closed_form(path, 1.1, 10000.0, 40, {})
    perturb_csv(path, 20, 3, lambda n: n * (1.0 + 1e-5))
    assert checks.gaussian_vs_closed_form(path, 1.1, 10000.0, 41, {})


@pytest.mark.parametrize("name, failing, n_checks", [
    ("validate_report_default.json", set(), 16),
    ("validate_report_corrupt.json", {"conserved_number"}, 16),
])
def test_validate_report(tmp_path, name, failing, n_checks):
    path = copy(name, tmp_path)
    measured = {}
    assert checks.validate_report(path, failing, n_checks, measured) == []
    assert measured["fock_dynamics.occ_abs_err"] < 1e-6

    def flip_norm_check(payload):
        for c in payload["checks"]:
            if c["name"] == "norm_preservation":
                c["passed"] = False
        payload["failures"] += 1

    edit_json(path, flip_norm_check)
    assert checks.validate_report(path, failing, n_checks, {})


def test_sweep_csv(tmp_path):
    path = copy("sweep.csv", tmp_path)
    assert checks.sweep_csv(path, SWEEP_R, SWEEP_RATIOS) == []
    assert checks.sweep_csv(path, SWEEP_R, SWEEP_RATIOS[::-1])
    perturb_csv(path, 5, 3, lambda eps: eps * (1.0 + 1e-10))
    assert checks.sweep_csv(path, SWEEP_R, SWEEP_RATIOS)
    path = copy("sweep.csv", tmp_path)
    perturb_csv(path, 7, 2, lambda s: s * (1.0 + 1e-6))
    assert checks.sweep_csv(path, SWEEP_R, SWEEP_RATIOS)


@pytest.fixture
def spectrum_dir(tmp_path):
    with gzip.open(REFERENCE_DIR / "spectrum.csv.gz", "rb") as src:
        (tmp_path / "spectrum.csv").write_bytes(src.read())
    shutil.copy(REFERENCE_DIR / "spectrum_summary.json", tmp_path)
    return tmp_path


def test_spectrum_matches_reference(spectrum_dir):
    assert checks.spectrum_matches(spectrum_dir, REFERENCE_DIR) == []


def test_spectrum_value_perturbed(spectrum_dir):
    perturb_csv(spectrum_dir / "spectrum.csv", 1234, 1, lambda s: s + 1e-8)
    assert checks.spectrum_matches(spectrum_dir, REFERENCE_DIR)


def test_spectrum_regime_perturbed(spectrum_dir):
    edit_json(spectrum_dir / "spectrum_summary.json", lambda p: p.update(regime="narrow"))
    assert checks.spectrum_matches(spectrum_dir, REFERENCE_DIR)


def test_missing_output_fails(tmp_path):
    assert checks.evolve_summary(tmp_path / "evolve_summary.json", ["analytic"], True)
    assert checks.sweep_csv(tmp_path / "sweep.csv", SWEEP_R, SWEEP_RATIOS)
    assert checks.spectrum_matches(tmp_path, REFERENCE_DIR)
