"""The benchmark's workloads: CLI invocations generated from a seed.

Each workload is an ordered list of invocations of ``mwsqueeze.cli.main``.
The seed fixes every generated value; the CLI only sees the configs.  Each
invocation carries its expected exit code and the checks its outputs must
pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# r sets the default truncation, and so the propagation path: (17,17,10) with
# 2 890 states runs the dense expm path, (24,24,12) with 6 912 the Lanczos one.
FOCK_DENSE_R = 4.0
FOCK_KRYLOV_R = 3.0
FOCK_SAMPLES = 161
LADDER_SAMPLES = 20_001
SWEEP_KAPPA_HZ = 7000.0
SPECTRUM_CONFIG = {
    "r": 1.1, "theta_over_kappa": 10.0, "kappa_hz": SWEEP_KAPPA_HZ,
    "gamma_s_hz": SWEEP_KAPPA_HZ, "num_points": 4001,
}


@dataclass
class Invocation:
    command: str
    config: dict
    expected_exit: int
    # check(outdir, measured) -> list of failure messages
    checks: list = field(default_factory=list)

    def check(self, exit_code: int, outdir: Path, measured: dict) -> list[str]:
        if exit_code != self.expected_exit:
            return [f"exit code {exit_code}, expected {self.expected_exit}"]
        fails = []
        for check in self.checks:
            fails += check(outdir, measured)
        return fails


def _evolve(route, r, theta_hz, samples, fock=False) -> Invocation:
    """``fock``: route ``all`` runs the fock route; otherwise it must be refused."""
    cfg = {"route": route, "r": r, "theta_hz": theta_hz, "num_samples": samples}
    inv = Invocation("evolve", cfg, 0)
    inv.checks.append(lambda d, m: checks.gaussian_vs_closed_form(
        d / "evolve_gaussian.csv", r, theta_hz, samples, m))
    if route == "all":
        routes = ["analytic", "gaussian"] + (["fock"] if fock else [])
        inv.checks.append(lambda d, m: checks.evolve_summary(
            d / "evolve_summary.json", routes, fock_skipped=not fock))
        if fock:
            inv.checks.append(lambda d, m: checks.fock_vs_closed_form(
                d / "evolve_fock.csv", r, theta_hz, samples, m))
    return inv


def _theta_hz(rng) -> float:
    return rng.uniform(8000.0, 12000.0)


def evolve_fock(seed: int) -> list[Invocation]:
    theta_hz = _theta_hz(random.Random(seed))
    return [
        _evolve("all", FOCK_DENSE_R, theta_hz, FOCK_SAMPLES, fock=True),
        _evolve("all", FOCK_KRYLOV_R, theta_hz, FOCK_SAMPLES, fock=True),
    ]


def validate(seed: int) -> list[Invocation]:
    """The full check suite with the exchange term corrupted into pair creation.

    All 16 checks run: the corrupted H must fail ``conserved_number`` alone,
    while the r = 3 evolution, the gaussian and spectrum fixtures and the
    raman checks must pass.  A second, uncorrupted run would repeat the same
    ~19 s of work, and the benchmark's total run time has no room for it.
    """
    del seed  # validate takes no physical parameters
    return [
        Invocation("validate", {"corrupt_hamiltonian_sign": True}, 1,
                   [lambda d, m: checks.validate_report(
                       d / "validate_report.json", {"conserved_number"}, 16, m)]),
    ]


def spectrum_gaussian(seed: int) -> list[Invocation]:
    """The two CLI paths with no fock layer: the spectrum, then the gaussian ladder.

    The sweep's 12 spectra go through its thread pool; then one 4 001-point
    spectrum; then the gaussian route toward r = 1+ at 20 001 samples
    (r = 1.1, route ``all`` at r = 1.01 where fock is refused, r = 1.001).
    The ladder is single-threaded Python: as a workload of its own, its CPU
    time spread by 0.26 of its median over ten runs on a 2-core virtual
    machine, over the largest bound a metric may have (0.25).  Behind the
    spectrum it adds about a fifth of the sequence's CPU time.
    """
    rng = random.Random(seed)
    r_values = [rng.uniform(1.05, 3.0) for _ in range(3)]
    ratios = [rng.uniform(0.2, 12.0) for _ in range(4)]
    theta_hz = _theta_hz(rng)
    sweep = {
        "outputs": ["min_s", "epsilon"], "r_values": r_values,
        "theta_over_kappa_values": ratios, "kappa_hz": SWEEP_KAPPA_HZ,
    }
    ladder = partial(_evolve, theta_hz=theta_hz, samples=LADDER_SAMPLES)
    return [
        Invocation("sweep", sweep, 0, [lambda d, m: checks.sweep_csv(d / "sweep.csv", r_values, ratios)]),
        Invocation("spectrum", dict(SPECTRUM_CONFIG), 0,
                   [lambda d, m: checks.spectrum_matches(d, REFERENCE_DIR)]),
        ladder("gaussian", 1.1), ladder("all", 1.01), ladder("gaussian", 1.001),
    ]


WORKLOADS = {
    "evolve-fock": evolve_fock,
    "validate": validate,
    "spectrum-gaussian": spectrum_gaussian,
}
MAX_INVOCATIONS = max(len(make(0)) for make in WORKLOADS.values())
