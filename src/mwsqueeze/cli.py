"""Command-line front end: parse a JSON config, dispatch, emit data files.

Commands: ``evolve``, ``spectrum``, ``feasibility``, ``validate``, ``sweep``.
Every physical quantity in a config carries an explicit unit suffix
(``_hz``, ``_s``, ``_k``); unknown or unsuffixed keys are rejected.  Output
files are byte-deterministic: CSV with 17-significant-digit floats, LF line
endings, and no timestamps; provenance (config echo plus library version)
goes to a sidecar ``run_manifest.json``.

Exit codes: 0 success, 1 validation failure, 2 configuration error (a
``ConfigError``, or a path that cannot be read or written), 3 ``NumericalError``.

Only numpy is imported up front: the fock route and the validation suite
import their modules when they run, and no command loads scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, closed_form, feasibility, moments, spectrum
from .errors import ConfigError, NumericalError, TruncationWarning
from .fock import FockOperator, ModeLayout, vacuum_state
from .params import CONSERVED_CHARGE, COUPLING_TERMS, DecayRates, EffectiveCouplings, oscillation_rate

TWO_PI = 2.0 * math.pi

_ROUTES = ("fock", "gaussian", "analytic", "all")
# states of the charge lattice the fock route propagates.  Its one dense SVD
# of the even-to-odd block costs time cubic and memory quadratic in the
# lattice size: at r = 1.5 (3 915 states) a run takes 6 s on 2 cores and
# peaks at 0.5 GiB, at r = 1.65 (2 052 states) 1 s and 0.17 GiB.  The cap
# admits r >= 1.5 at the default cutoffs and refuses r = 1.4 (6 894 states).
_FOCK_BLOCK_CAP = 4_000


# ---------------------------------------------------------------------------
# CSV output: the bytes of format(x, ".17g"), a block of rows at a time

_CSV_BLOCK_ROWS = 2048


def _veltkamp(a):
    """Split doubles into two halves of at most 26 bits, whose products are exact."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, all exact
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _scaled(ax, k):
    """``ax * 10**(16 - k)`` exactly, as ``hi + lo`` (Dekker's product, no FMA needed)."""
    p = 16 - k
    hi = ax * _POW10[p]
    a_hi, a_lo = _veltkamp(ax)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# Every cell is laid out in fixed byte slots: the sign, the "0.000" of a
# fixed-point value below 1, 17 digits each followed by a point, the exponent
# "e-0d" and the separator.  A keep table indexed by (decimal exponent + 6,
# significant digits) picks the slots "%.17g" prints; its last row keeps only
# the separator, for the cells formatted one by one.
_CELL = np.frombuffer(b"-0.000" + b"0." * 17 + b"e-00,", dtype=np.uint8)
_DIGIT, _EXP, _SEP = 6, 40, 44
# the four ASCII digits of 0 .. 9999, one uint32 word each
_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _keep_table():
    k = np.arange(-6, 16)[:, None, None]
    sig = np.arange(18)[:, None]
    slot = np.arange(_CELL.size)
    i, point = np.divmod(slot - _DIGIT, 2)
    digit = (slot >= _DIGIT) & (slot < _EXP)
    sci = k < -4
    keep = (
        (-4 <= k) & (k < 0) & (slot >= 1) & (slot <= 1 - k)
        | digit & (point == 0) & ((i < sig) | (i <= k))
        | digit & (point == 1) & (i == np.where(sci, 0, k)) & (i + 1 < sig)
        | sci & (slot >= _EXP) & (slot < _SEP)
        | (slot == _SEP)
    )
    return np.concatenate([keep, np.broadcast_to(slot == _SEP, (1, 18, slot.size))])


_KEEP = _keep_table()


def _format_rows(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D block of finite floats, every value as ``format(x, ".17g")``.

    A value of decimal exponent -6 to 15 gets its digits by exact arithmetic
    (1e-6 rounds below 10**-6, hence the strict ``>``); the rest, zeros and
    subnormals among them, go through ``"%.17g" %`` one by one and are spliced in.
    """
    x = block.ravel()
    ax = np.abs(x)
    exact = (ax > 1e-6) & (ax < 1e16)
    ax[~exact] = 1.0
    # the digits are ax * 10**(16 - k) rounded half to even, for the k that puts
    # it in [1e16, 1e17); log10 guesses k and the exact product corrects a miss by one
    k = np.clip(np.floor(np.log10(ax)), -6, 15).astype(np.int64)
    hi, lo = _scaled(ax, k)
    miss = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64) - ((hi < 1e16) | (hi == 1e16) & (lo < 0))
    if miss.any():
        k += miss
        hi, lo = _scaled(ax, k)
    # hi >= 2**53 is an even integer, so adding rint(lo) rounds the exact sum half to even;
    # it never carries to 10**17, since no double of the window lies within 5e-18
    # relative below a power of ten (the nearest, below 1e-6, is 4.5e-17 away)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead, rest = np.divmod(n, 10**16)
    words = np.stack(np.divmod(np.stack(np.divmod(rest, 10**8), axis=-1), 10**4), axis=-1)

    cells = np.empty((x.size, _CELL.size), dtype=np.uint8)
    cells[:] = _CELL
    cells.reshape(block.shape + (-1,))[:, -1, _SEP] = ord("\n")
    digits = cells[:, _DIGIT:_EXP:2]
    digits[:, 0] = lead + 48
    digits[:, 1:] = _WORDS[words.reshape(-1, 4)].view(np.uint8)
    cells[:, _SEP - 1] = 48 - k  # the exponent's digit, kept for k = -6 and -5 only
    sig = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keep = _KEEP[np.where(exact, k + 6, -1), sig]
    keep[:, 0] = exact & np.signbit(x)
    body = np.compress(keep.ravel(), cells.ravel()).tobytes()

    one_by_one = np.flatnonzero(~exact)
    if not one_by_one.size:
        return body
    # such a cell kept only its separator; its text goes in front of it
    at = np.cumsum(keep.sum(axis=1))[one_by_one] - 1
    pieces, pos = [], 0
    for j, value in zip(at.tolist(), x[one_by_one].tolist()):
        pieces += [body[pos:j], b"%.17g" % value]
        pos = j
    pieces.append(body[pos:])
    return b"".join(pieces)


def write_csv(path: Path, header, rows):
    """Write the 2-D float array ``rows`` under ``header``, every value as ``format(x, ".17g")``.

    Nothing is written if any value is not finite.  The body is formatted by
    :func:`_format_rows` in blocks of a fixed ``_CSV_BLOCK_ROWS`` rows, which
    keeps each block's byte buffers in cache and the memory independent of the
    row count.
    """
    if not np.isfinite(rows).all():
        raise NumericalError("refusing to emit a non-finite value")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            fh.write(_format_rows(rows[start:start + _CSV_BLOCK_ROWS]))


def write_json(path: Path, payload):
    """Write ``payload`` as sorted, indented JSON; nothing is written if any number is not finite."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError("refusing to emit a non-finite value") from None
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(text + "\n")


def write_manifest(outdir: Path, command: str, config: dict):
    write_json(outdir / "run_manifest.json", {
        "command": command,
        "config": config,
        "library_version": __version__,
    })


# ---------------------------------------------------------------------------
# config schemas

# a schema value is the accepted type, or ``[t]`` for a list of ``t``
_SCHEMAS = {
    "evolve": {
        "route": str,
        "r": (int, float),
        "theta_hz": (int, float),
        "xi1_hz": (int, float),
        "xi2_hz": (int, float),
        "t_final_over_t_pi": (int, float),
        "t_final_s": (int, float),
        "num_samples": int,
        "dims": [int],
    },
    "spectrum": {
        "r": (int, float),
        "theta_over_kappa": (int, float),
        "kappa_hz": (int, float),
        "xi1_hz": (int, float),
        "xi2_hz": (int, float),
        "gamma_s_hz": (int, float),
        "num_points": int,
    },
    "feasibility": {
        "temperature_k": (int, float),
        "gamma_a_hz": (int, float),
    },
    "validate": {
        "corrupt_hamiltonian_sign": bool,
    },
    "sweep": {
        "outputs": [str],
        "r_values": [(int, float)],
        "theta_over_kappa_values": [(int, float)],
        "temperature_k_values": [(int, float)],
        "r": (int, float),
        "theta_hz": (int, float),
        "theta_over_kappa": (int, float),
        "kappa_hz": (int, float),
        "frequency_hz": (int, float),
        "gamma_c_hz": (int, float),
    },
}


def _check_value(key: str, value, expect):
    """One config value against its schema entry; every number must be a finite double."""
    if isinstance(expect, list) and isinstance(value, list):
        for i, item in enumerate(value):
            _check_value(f"{key}[{i}]", item, expect[0])
    elif isinstance(expect, list) or not isinstance(value, expect) or isinstance(value, bool) and expect is not bool:
        raise ConfigError(f"config key {key!r} has wrong type (expected {expect})")
    # JSON parses NaN and infinities; an integer beyond the double range overflows as a float
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r:.24}")


def validate_config(command: str, config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    schema = _SCHEMAS[command]
    for key, value in config.items():
        if key not in schema:
            raise ConfigError(
                f"unknown config key {key!r} for command {command!r}; "
                "physical quantities need explicit unit suffixes (_hz, _s, _k)"
            )
        _check_value(key, value, schema[key])
    return config


def _load_config(path: str) -> dict:
    """The parsed config file: unparsable text (not UTF-8, say, or nested too deep) is a ``ConfigError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")


def _physical(build, *args, **kwargs):
    """Call a parameter or grid constructor, reporting its ``ValueError`` (a bad value) as a ``ConfigError``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _couplings_from_config(cfg, rate_key: str, unit: float, raw=False):
    """Couplings from ``(r, theta = cfg[rate_key] * unit)`` or ``(xi1_hz, xi2_hz)``; None if both rates are 0.

    ``raw`` keeps a rate pair as an unordered ``(xi1, xi2)`` tuple, so stability
    studies (for example ``xi2 = 0`` parametric gain) are expressible.
    """
    has_rt = rate_key in cfg or "r" in cfg
    has_xi = "xi1_hz" in cfg or "xi2_hz" in cfg
    if has_rt and has_xi:
        raise ConfigError(f"give either (r, {rate_key}) or (xi1_hz, xi2_hz), not both")
    if has_rt:
        if "r" not in cfg or rate_key not in cfg:
            raise ConfigError(f"both r and {rate_key} are required")
        return _physical(EffectiveCouplings.from_theta_r, cfg[rate_key] * unit, cfg["r"])
    if not has_xi:
        raise ConfigError(f"couplings missing: give (r, {rate_key}) or (xi1_hz, xi2_hz)")
    xi1 = TWO_PI * cfg.get("xi1_hz", 0.0)
    xi2 = TWO_PI * cfg.get("xi2_hz", 0.0)
    if xi1 == 0.0 and xi2 == 0.0:
        return None
    return (xi1, xi2) if raw else _physical(EffectiveCouplings, xi1, xi2)


# ---------------------------------------------------------------------------
# evolve

def _evolve_times(cfg, theta: float):
    """Sample times from 0 to the final time; ``theta`` is the oscillation rate, 0 when uncoupled."""
    n = cfg.get("num_samples", 401)
    if n < 2:
        raise ConfigError("num_samples must be at least 2")
    if "t_final_s" in cfg and "t_final_over_t_pi" in cfg:
        raise ConfigError("give t_final_s or t_final_over_t_pi, not both")
    if "t_final_s" in cfg:
        t_end = cfg["t_final_s"]
    else:
        mult = cfg.get("t_final_over_t_pi", 2.0)
        if not theta:
            raise ConfigError("t_final_over_t_pi needs nonzero couplings; give t_final_s")
        t_end = mult * (math.pi / theta)
    if not (t_end > 0 and theta * t_end < math.inf):
        raise ConfigError(f"final time must be positive, with theta times it finite; got {t_end:g} s")
    times = _physical(np.linspace, 0.0, t_end, n)
    if np.any(np.diff(times) <= 0):
        raise ConfigError(f"final time {t_end:g} s is too short for {n} distinct samples")
    return times


# each route returns its columns: the (n, 3) occupations, zeta12 and, on the fock route, leakage
def _route_analytic(couplings, times):
    occ = np.zeros((len(times), 3)) if couplings is None else closed_form.occupations_closed_form(couplings, times)
    return occ, closed_form.zeta12_closed_form_grid(occ)


def _route_gaussian(couplings, times):
    V = moments.evolve_moments(moments.drift_matrix(couplings), moments.vacuum_moments(), times)
    return moments.occupations_from_moments(V), moments.zeta12_from_moments(V)


def _fock_layout(cfg, couplings):
    if "dims" in cfg:
        dims = cfg["dims"]
        if len(dims) != 3:
            raise ConfigError("dims must be three integers")
    else:
        if couplings is None:
            dims = [4, 4, 4]
        else:
            nc = closed_form.suggest_cavity_cutoff(couplings.r) + 1
            ns = closed_form.suggest_spin_cutoff(couplings.r) + 1
            dims = [nc, nc, ns]
    return _physical(ModeLayout, dims)


def _route_fock(layout, couplings, times):
    from . import fock_dynamics as fdyn

    size = fdyn.charge_lattice_size(layout.dims)
    if size > _FOCK_BLOCK_CAP:
        raise ConfigError(
            f"fock route infeasible: requested truncation {layout.dims} holds {size} states "
            f"on the charge lattice reachable from vacuum > {_FOCK_BLOCK_CAP}; use the gaussian "
            "route, whose propagator is exact at any photon number (its zeta12 is off by a few "
            "n * 2.2e-16 at n photons per mode, the rounding of the Wick subtraction)"
        )
    if layout.dim > np.iinfo(np.int64).max:
        raise ConfigError(
            f"fock route infeasible: requested truncation {layout.dims} has composite "
            f"dimension {layout.dim}, beyond a 64-bit basis index"
        )
    traj = fdyn.evolve_vacuum(couplings, layout, times)
    return traj.occupations, traj.zeta12, traj.leakage


def _route_discrepancy(a, b):
    """Largest occupation and zeta12 differences between two routes' columns."""
    (occ_a, zeta_a, *_), (occ_b, zeta_b, *_) = a, b
    occ = np.abs(occ_a - occ_b).max()
    # zeta12 is a 0/0 ratio at vacuum-return instants, where any
    # finite-truncation route reports a convention/residue value;
    # such samples are excluded from the discrepancy and counted.  This
    # 1e-8 is a rule of its own, wider than zeta12's (closed_form.zeta12_ratio)
    near_vacuum = np.maximum(occ_a[:, 0] + occ_a[:, 1], occ_b[:, 0] + occ_b[:, 1]) < 1e-8
    zeta = np.abs(zeta_a[~near_vacuum] - zeta_b[~near_vacuum]).max(initial=0.0)
    return {
        "max_occupation_discrepancy": float(occ),
        "max_zeta12_discrepancy": float(zeta),
        "zeta12_samples_excluded_near_vacuum": int(near_vacuum.sum()),
    }


def run_evolve(cfg: dict, outdir: Path) -> int:
    route = cfg.get("route", "gaussian")
    if route not in _ROUTES:
        raise ConfigError(f"route must be one of {_ROUTES}")
    if "dims" in cfg and route not in ("fock", "all"):
        raise ConfigError(f"config key 'dims' sets the fock truncation, which route {route!r} does not use")
    couplings = _couplings_from_config(cfg, "theta_hz", TWO_PI)
    theta = oscillation_rate(couplings) or 0.0
    times = _evolve_times(cfg, theta)
    layout = _fock_layout(cfg, couplings) if route in ("fock", "all") else None
    header = ["t_seconds", "theta_t", "n1", "n2", "n3", "zeta12"]

    columns = {}
    fock_skipped = False
    if route in ("analytic", "all"):
        columns["analytic"] = _route_analytic(couplings, times)
    if route in ("gaussian", "all"):
        columns["gaussian"] = _route_gaussian(couplings, times)
    if route in ("fock", "all"):
        try:
            columns["fock"] = _route_fock(layout, couplings, times)
        except ConfigError:
            if route == "fock":
                raise
            fock_skipped = True

    for name, cols in columns.items():
        rows = np.column_stack([times, theta * times, *cols])
        write_csv(outdir / f"evolve_{name}.csv", header + (["leakage"] if name == "fock" else []), rows)

    if route == "all":
        summary = {"routes": sorted(columns)}
        summary["discrepancies"] = {
            f"{a}_vs_{b}": _route_discrepancy(columns[a], columns[b])
            for a in summary["routes"] for b in summary["routes"] if a < b
        }
        if fock_skipped:
            summary["fock_skipped"] = "truncation infeasible at this r; see gaussian route"
        write_json(outdir / "evolve_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# spectrum

def _spectrum(couplings, decays: DecayRates, kappa: float, points: int):
    """Squeezing spectrum on the default grid, and that grid's frequency unit.

    The unit is the oscillation rate theta or, uncoupled or non-oscillatory,
    the cavity linewidth ``kappa``.
    """
    unit = _physical(oscillation_rate, couplings) or kappa
    grid = _physical(spectrum.default_omega_grid, unit, kappa, points)
    return spectrum.squeezing_spectrum(couplings, decays, grid), unit


def run_spectrum(cfg: dict, outdir: Path) -> int:
    kappa_hz = cfg.get("kappa_hz")
    if kappa_hz is None or kappa_hz <= 0:
        raise ConfigError("kappa_hz (> 0) is required")
    kappa = TWO_PI * kappa_hz
    couplings = _couplings_from_config(cfg, "theta_over_kappa", kappa, raw=True)
    decays = _physical(
        DecayRates, kappa1=kappa, kappa2=kappa, gamma_s=TWO_PI * cfg.get("gamma_s_hz", 0.0)
    )
    points = cfg.get("num_points", 2001)
    if points < 11 or points % 2 == 0:
        raise ConfigError("num_points must be an odd integer >= 11")
    result, scale = _spectrum(couplings, decays, kappa, points)
    rows = np.column_stack([result.omega / scale, result.s_plus, result.s_minus])
    write_csv(outdir / "spectrum.csv", ["omega_over_theta", "s_plus", "s_minus"], rows)
    write_json(outdir / "spectrum_summary.json", {
        "regime": result.regime_label,
        "min_s_plus": float(np.min(result.s_plus)),
        "minima_omega_over_theta": [[w / scale, s] for w, s in result.minima],
        "omega_unit_rad_s": scale,
        "kappa_rad_s": kappa,
    })
    return 0


# ---------------------------------------------------------------------------
# feasibility

def run_feasibility(cfg: dict, outdir: Path) -> int:
    if "gamma_a_hz" in cfg and "temperature_k" not in cfg:
        raise ConfigError("config key 'gamma_a_hz' needs 'temperature_k': it enters only the thermal block")
    preset = feasibility.rb_preset()
    payload = {
        "rb_preset": dataclasses.asdict(preset),
        "crossover_temperature_k": feasibility.crossover_temperature(preset.hyperfine_freq_hz),
    }
    if "temperature_k" in cfg:
        temp = cfg["temperature_k"]
        n_th = _physical(feasibility.thermal_occupation, preset.hyperfine_freq_hz, temp)
        kappa = TWO_PI * preset.kappa_over_2pi_hz
        block = {
            "temperature_k": temp,
            "n_thermal": n_th,
            "heating_rate_over_2pi_hz": feasibility.heating_rate(kappa, n_th) / TWO_PI,
        }
        if "gamma_a_hz" in cfg:
            g_coll = TWO_PI * preset.collective_coupling_over_2pi_hz
            gamma_c = _physical(feasibility.absorption_rate, g_coll, 1.0, TWO_PI * cfg["gamma_a_hz"])
            block["absorption_rate_over_2pi_hz"] = gamma_c / TWO_PI
            block["thermal_suppression"] = feasibility.thermal_suppression(kappa, gamma_c)
        payload["thermal"] = block
    write_json(outdir / "feasibility.json", payload)
    return 0


# ---------------------------------------------------------------------------
# validate

def _validate_checks(cfg):
    from . import fixtures, raman
    from . import fock_dynamics as fdyn
    from .fock import mode_annihilator

    corrupt = cfg.get("corrupt_hamiltonian_sign", False)
    checks = []

    def record(name, measured, threshold, passed=None):
        ok = bool(measured <= threshold) if passed is None else bool(passed)
        checks.append({"name": name, "measured": float(measured), "threshold": float(threshold), "passed": ok})

    # commutator identities on a small layout; row i of each product is the
    # operator applied to basis state i
    layout = ModeLayout((4, 3, 5))
    basis = np.eye(layout.dim, dtype=complex)
    worst = 0.0
    for m in range(3):
        for k in range(3):
            comm = (mode_annihilator(layout, m, mode_annihilator(layout, k, basis, dagger=True))
                    - mode_annihilator(layout, k, mode_annihilator(layout, m, basis), dagger=True))
            expect = 0.0
            if k == m:
                occ = layout.occupation_arrays()[m]
                expect = np.diag(np.where(occ == layout.dims[m] - 1, -(layout.dims[m] - 1.0), 1.0))
            worst = max(worst, float(np.max(np.abs(comm - expect))))
    record("fock_commutators", worst, 1e-12)

    # effective Hamiltonian pair-creation element and conservation law
    c2 = EffectiveCouplings.from_theta_r(1.0, 2.0)
    small = ModeLayout((16, 16, 10))
    # test-harness hook: turn the exchange term into pair creation,
    # which stays Hermitian but breaks the conserved combination
    terms = (("pair", 0, 2), ("pair", 1, 2)) if corrupt else COUPLING_TERMS
    H = FockOperator(c2, small, terms=terms)
    times = np.linspace(0.0, 2.0 * closed_form.t_pi(c2), 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        traj = fdyn.evolve_state(H, vacuum_state(small), times)
    # the reached block holds vacuum and its pair-creation image
    rows, cols, vals = fdyn._box_entries(H, traj.block)
    pair = (traj.block[rows] == small.index((1, 0, 1))) & (traj.block[cols] == small.index((0, 0, 0)))
    record("pair_creation_element", abs(vals[pair].sum() - 1j * complex(c2.xi1)), 1e-12)

    # N is diagonal, so <N> and <N^2> of every sample are one reduction over the populations
    charge = np.dot(CONSERVED_CHARGE, np.unravel_index(traj.block, small.dims)).astype(float)
    n_moments = np.abs(traj.states) ** 2 @ np.column_stack([charge, charge**2])
    record("conserved_number", np.abs(n_moments).max(), 1e-8)
    record("norm_preservation", max(abs(n - 1.0) for n in traj.norms), 1e-8)

    # fock vs closed form at r = 3 (tail < 1e-10 truncation), through the evolve
    # command's own fock and analytic routes
    c3 = EffectiveCouplings.from_theta_r(1.0, 3.0)
    lay3 = ModeLayout((24, 24, 11))
    t3 = np.linspace(0.0, 2.0 * closed_form.t_pi(c3), 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        occ3 = _route_fock(lay3, c3, t3)[0]
    record("fock_vs_closed_form_occupations", np.abs(occ3 - _route_analytic(c3, t3)[0]).max(), 1e-6)

    # Wick expansion vs brute-force Fock moments on closed-form states at
    # tail < 1e-10 truncation; r = 3 keeps the space at 6 336 states here
    # (the test suite runs the same oracle at r = 2 on a larger space)
    wick_dev = 0.0
    for frac in (0.2, 0.45, 0.7, 0.95):
        st = fdyn.analytic_state(c3, frac * closed_form.t_pi(c3), lay3, tail_tol=1e-9)
        direct = fdyn.relative_number_squeezing(st, lay3)
        V = moments.moments_from_fock_state(st, lay3)
        wick_dev = max(wick_dev, abs(direct - moments.zeta12_from_moments(V)))
    record("zeta12_wick_vs_fock", wick_dev, 1e-8)

    # gaussian route vs closed form at r = 1.1
    c11 = EffectiveCouplings.from_theta_r(1.0, 1.1)
    tpi = closed_form.t_pi(c11)
    V = moments.evolve_moments(moments.drift_matrix(c11), moments.vacuum_moments(), [tpi])[0]
    occ = moments.occupations_from_moments(V)
    ref = closed_form.occupations_closed_form(c11, tpi)
    record("gaussian_vs_closed_form_at_t_pi", np.abs(occ - ref).max(), 1e-6)
    record("gaussian_zeta12_dip", abs(moments.zeta12_from_moments(V)), 1e-8)
    record("commutator_offsets", np.abs(moments.commutator_offsets(V) - 1.0).max(), 1e-8)

    # spectrum calibration, symmetry, stability fixtures; kappa = 1 puts the default grid at +-3
    d = DecayRates.cavities(1.0)
    sres, _ = _spectrum(None, d, 1.0, 201)
    record("shot_noise_calibration", float(np.max(np.abs(sres.s_plus - 1.0))), 1e-10)
    csp = EffectiveCouplings.from_theta_r(1.0, 1.1)
    sres2, _ = _spectrum(csp, d, 1.0, 401)
    record("spectrum_symmetry", float(np.max(np.abs(sres2.s_plus - sres2.s_plus[::-1]))), 1e-8)
    stable_closed, _ = spectrum.stability_check(c11, DecayRates())
    stable_damped, _ = spectrum.stability_check(csp, DecayRates.cavities(1.0))
    unstable_param, _ = spectrum.stability_check((1.0, 0.0), DecayRates.cavities(1.5))
    record("stability_fixtures", 0.0, 0.5,
           passed=(not stable_closed) and stable_damped and (not unstable_param))

    # bosonization residual fixtures
    basis2 = raman.AtomicBasis(2, 2)
    g_state = np.zeros(basis2.dim, dtype=complex)
    g_state[basis2.ground_index()] = 1.0
    r0 = raman.bosonization_residual(basis2, g_state)
    one_exc = np.zeros(basis2.dim, dtype=complex)
    one_exc[basis2.index[((1, 0), 0, 0)]] = 1 / math.sqrt(2)
    one_exc[basis2.index[((0, 1), 0, 0)]] = 1 / math.sqrt(2)
    r1 = raman.bosonization_residual(basis2, one_exc)
    both_h = np.zeros(basis2.dim, dtype=complex)
    both_h[basis2.index[((1, 1), 0, 0)]] = 1.0
    r2 = raman.bosonization_residual(basis2, both_h)
    record("bosonization_fixtures",
           max(r0, abs(r1 - 1.0), abs(r2 - 2.0)), 1e-12)

    devs = {}
    for ratio in (10, 20, 40):
        rc = fixtures.adiabatic_fixture_config(ratio)
        horizon = math.pi / fixtures.adiabatic_theta(rc)
        devs[ratio], _ = raman.adiabatic_error(rc, horizon, 161, excitation_cap=2)
    record("adiabatic_ratio20_regression", devs[20], fixtures.ADIABATIC_FROZEN_DEVIATION)
    record("adiabatic_monotone", 0.0, 0.5,
           passed=devs[10] > devs[20] > devs[40])
    rc2 = fixtures.ADIABATIC_N2_CONFIG
    horizon2 = math.pi / fixtures.adiabatic_theta(rc2)
    dev2, _ = raman.adiabatic_error(
        rc2, horizon2, 81, excitation_cap=fixtures.ADIABATIC_N2_EXCITATION_CAP
    )
    record("adiabatic_n2_regression", dev2, fixtures.ADIABATIC_N2_FROZEN_DEVIATION)
    return checks


def run_validate(cfg: dict, outdir: Path) -> int:
    checks = _validate_checks(cfg)
    n_fail = sum(0 if c["passed"] else 1 for c in checks)
    write_json(outdir / "validate_report.json", {"checks": checks, "failures": n_fail})
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: measured {c['measured']:.3e} (threshold {c['threshold']:.3e})")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# sweep

def _epsilon(p):
    r = p["r"]
    eps = _physical(closed_form.squeezing_parameter, r)
    oracle = math.log((1.0 + r) / (r - 1.0))
    if abs(eps - oracle) > 1e-9 * max(1.0, abs(oracle)):
        raise NumericalError(f"squeezing parameter failed its oracle cross-check at r={r}")
    return eps


def _t_pi(theta_hz):
    if not theta_hz > 0:
        raise ConfigError(f"t_pi_s needs a positive theta, got {theta_hz:g} Hz")
    return 1.0 / (2.0 * theta_hz)


def _min_s(p):
    kappa = TWO_PI * p["kappa_hz"]
    couplings = _couplings_from_config(p, "theta_over_kappa", kappa)
    result, _ = _spectrum(couplings, _physical(DecayRates.cavities, kappa), kappa, 2001)
    return float(np.min(result.s_plus))


# output -> (keys of a sweep point it reads, its value at that point); a point
# holds the fixed config keys, and each swept axis's value under the axis name
_SWEEP_OUTPUTS = {
    "epsilon": (("r",), _epsilon),
    "t_pi_s": (("theta_hz",), lambda p: _t_pi(p["theta_hz"])),
    "min_s": (("r", "theta_over_kappa", "kappa_hz"), _min_s),
    "n_thermal": (("frequency_hz", "temperature_k"),
                  lambda p: _physical(feasibility.thermal_occupation, p["frequency_hz"], p["temperature_k"])),
    "suppression": (("kappa_hz", "gamma_c_hz"),
                    lambda p: _physical(feasibility.thermal_suppression, p["kappa_hz"], p["gamma_c_hz"])),
}
# wherever theta_over_kappa is given, fixed or swept, t_pi_s follows it (as min_s does) instead of theta_hz
_RATIO_OUTPUTS = {
    "t_pi_s": (("theta_over_kappa", "kappa_hz"),
               lambda p: _t_pi(p["theta_over_kappa"] * p["kappa_hz"])),
}
_SWEEP_AXES = ("r", "theta_over_kappa", "temperature_k")


def run_sweep(cfg: dict, outdir: Path) -> int:
    outputs = cfg.get("outputs")
    if not outputs:
        raise ConfigError("sweep needs a non-empty outputs list")
    axes = {name: cfg[f"{name}_values"] for name in _SWEEP_AXES if f"{name}_values" in cfg}
    if not axes:
        raise ConfigError("sweep needs at least one of r_values, theta_over_kappa_values, temperature_k_values")
    for name, vals in axes.items():
        if not vals:
            raise ConfigError(f"{name}_values must not be empty")
    ratio_given = "theta_over_kappa" in cfg or "theta_over_kappa" in axes
    table = {**_SWEEP_OUTPUTS, **(_RATIO_OUTPUTS if ratio_given else {})}
    for o in outputs:
        if o not in table:
            raise ConfigError(f"unknown sweep output {o!r}; known: {tuple(table)}")
        if outputs.count(o) > 1:
            raise ConfigError(f"sweep output {o!r} is given more than once")
        for k in table[o][0]:
            if k not in cfg and k not in axes:
                keys = " or ".join(repr(n) for n in (k, f"{k}_values") if n in _SCHEMAS["sweep"])
                raise ConfigError(f"sweep output {o!r} needs config key {keys}")

    rows = []
    for values in product(*([float(v) for v in vals] for vals in axes.values())):
        point = {**cfg, **dict(zip(axes, values))}
        value = {o: evaluate(point) for o, (_, evaluate) in table.items() if o in outputs}
        rows.append(values + tuple(value[o] for o in outputs))
    write_csv(outdir / "sweep.csv", list(axes) + list(outputs), np.array(rows))
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {
    "evolve": run_evolve,
    "spectrum": run_spectrum,
    "feasibility": run_feasibility,
    "validate": run_validate,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mwsqueeze",
        description="Squeezed-microwave-field generation: simulation and verification runner",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--output-dir", default=None, help="directory for output files")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        config = validate_config(args.command, config)
        outdir = Path(args.output_dir) if args.output_dir else Path.cwd()
        outdir.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](config, outdir)
        write_manifest(outdir, args.command, config)
        return code
    except (ConfigError, MemoryError, OSError) as exc:
        # a grid the config sizes beyond what numpy can allocate, or a path that cannot be read or written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
