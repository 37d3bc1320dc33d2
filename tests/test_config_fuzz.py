"""Seeded config fuzzer: configs drawn from the CLI schemas keep the exit-code contract.

Each command gets 500 configs from a fixed seed (``validate``, which runs its
whole suite, 24), half of them random key sets and half a runnable config
with one to three keys mutated.  Numbers come from edge pools (signed zeros,
1 + eps, subnormals, +-1e300, the largest double, 2**63) and a few ordinary
values; sizes stay small (``num_samples`` <= 41, ``num_points`` <= 201,
``dims`` <= 8 per mode, lists of at most three values), so a config runs
in milliseconds, a whole ``validate`` suite in a tenth of a second.  Every
run must exit 0, 2 or 3 (or 1, a failed check, for ``validate``), a
refusal must print one stderr line with no traceback and raise no warning,
which the CLI would print to stderr too, and only a run that gets through
writes ``run_manifest.json``.
"""

import json
import random
import sys
import warnings

import pytest

from mwsqueeze.cli import _ROUTES, _SCHEMAS, _SWEEP_OUTPUTS, main

_EDGES = [0.0, -0.0, 1.0 + 2**-52, 5e-324, 1e-310, 1e300, -1e300, sys.float_info.max, 2**63]
_PLAIN = [1.1, 2.0, 3.0, 0.5, -1.0, 0.1, 7e3, 1e4, 6.83e9]
_INTS = {"num_samples": [-1, 0, 1, 2, 3, 41], "num_points": [-1, 0, 10, 11, 12, 101, 201]}
_WRONG_TYPES = ["x", True, None, [], {}]

_RUNNABLE = {
    "evolve": [
        {"route": "gaussian", "r": 1.1, "theta_hz": 1e4, "num_samples": 21},
        {"route": "all", "r": 3.0, "theta_hz": 1e4, "num_samples": 21, "dims": [8, 8, 5]},
        {"route": "fock", "xi1_hz": 1e3, "xi2_hz": 3e3, "t_final_s": 1e-3, "num_samples": 11, "dims": [6, 6, 4]},
    ],
    "spectrum": [
        {"r": 1.1, "theta_over_kappa": 1.0, "kappa_hz": 7e3, "num_points": 101},
        {"xi1_hz": 1e3, "xi2_hz": 3e3, "kappa_hz": 7e3, "gamma_s_hz": 7e3, "num_points": 101},
    ],
    "feasibility": [{"temperature_k": 0.1, "gamma_a_hz": 1e6}],
    "validate": [{}, {"corrupt_hamiltonian_sign": True}],
    "sweep": [
        {"outputs": list(_SWEEP_OUTPUTS), "r_values": [1.1, 2.0], "temperature_k_values": [0.05],
         "theta_over_kappa": 3.0, "theta_hz": 1e4, "kappa_hz": 7e3, "frequency_hz": 6.83e9, "gamma_c_hz": 2e3},
        {"outputs": ["n_thermal", "suppression"], "temperature_k_values": [1e-3, 1.0],
         "frequency_hz": 6.83e9, "kappa_hz": 7e3, "gamma_c_hz": 2e3},
    ],
}


def _number(rng):
    x = rng.choice(_EDGES if rng.random() < 0.6 else _PLAIN)
    return -x if rng.random() < 0.2 else x


def _value(rng, key, expect):
    if rng.random() < 0.05:
        return rng.choice(_WRONG_TYPES)
    if key == "route":
        return rng.choice(_ROUTES + ("bogus",))
    if key == "dims":
        return [rng.randint(-1, 8) for _ in range(rng.choice([0, 2, 3, 3, 3, 4]))]
    if key == "outputs":
        return rng.sample(list(_SWEEP_OUTPUTS) + ["bogus"], rng.randint(0, 3))
    if isinstance(expect, list):
        return [_number(rng) for _ in range(rng.randint(0, 3))]
    if expect is bool:
        return rng.random() < 0.5
    return rng.choice(_INTS[key]) if expect is int else _number(rng)


def _draw(rng, command):
    schema = _SCHEMAS[command]
    if rng.random() < 0.5:
        cfg = {key: _value(rng, key, expect) for key, expect in schema.items() if rng.random() < 0.4}
    else:
        cfg = json.loads(json.dumps(rng.choice(_RUNNABLE[command])))
        for key in rng.sample(sorted(schema), rng.randint(1, min(3, len(schema)))):
            if key in cfg and rng.random() < 0.3:
                del cfg[key]
            else:
                cfg[key] = _value(rng, key, schema[key])
    # the fock route's truncation stays small: without dims it would follow r
    if command == "evolve" and cfg.get("route") in ("fock", "all") and "dims" not in cfg:
        cfg["dims"] = _value(rng, "dims", [int])
    return cfg


@pytest.mark.parametrize("seed,command", enumerate(["evolve", "spectrum", "feasibility", "sweep", "validate"]))
def test_drawn_configs_keep_the_exit_code_contract(tmp_path, capsys, seed, command):
    rng = random.Random(seed)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    manifest = out / "run_manifest.json"
    broken = []
    for _ in range(24 if command == "validate" else 500):
        cfg = _draw(rng, command)
        cfg_path.write_text(json.dumps(cfg))
        manifest.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([command, str(cfg_path), "--output-dir", str(out)])
            except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
                broken.append((cfg, repr(exc)))
                continue
        err = capsys.readouterr().err
        prefix = {2: "configuration error: ", 3: "numerical error: "}.get(code)
        if code == 0 or (code == 1 and command == "validate"):
            ok = manifest.exists() and "Traceback" not in err
        else:
            ok = (prefix is not None and err.startswith(prefix) and err.count("\n") == 1
                  and not caught and not manifest.exists())
        if not ok:
            broken.append((cfg, code, err, [str(w.message) for w in caught]))
    assert not broken, broken[:10]
