"""Layer wrapping on the real program, and the per-layer metric arithmetic."""

import json

import numpy.linalg
import pytest
import scipy.linalg

import layers
from spans import Recorder, Span

IMPORT_LOG = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |     mwsqueeze.params
import time:      2500 |     310000 |   mwsqueeze.fock
import time:      1000 |     700000 | mwsqueeze.cli
"""


def test_import_times_parse_cumulative():
    out = layers.import_times(IMPORT_LOG)
    assert out["setup.cli.import_s"] == pytest.approx(0.7)
    assert out["setup.fock.import_s"] == pytest.approx(0.31)
    assert out["setup.raman.import_s"] == 0.0
    assert set(out) == {f"setup.{m}.import_s" for m in layers.MODULES}


def test_metrics_from_synthetic_spans():
    rec = Recorder()
    rec.spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 0, 1),
        Span(2, layers.EVOLVE, 1.0, 9.0, 1, 0, 1),
        Span(3, "fock_dynamics.relative_number_squeezing", 2.0, 3.0, 2, 0, 1),
        Span(4, "cli.main", 20.0, 21.0, None, 1, 1),  # another run: ignored
    ]
    rec.counters[(0, f"{layers.EVOLVE}.samples")] = 4.0
    out = layers.metrics(rec, 0, 10.5, {"moments.occ_rel_err": 1e-9})
    assert set(out) == set(layers.UNITS) - {k for k in layers.UNITS if k.startswith("setup.")}
    assert out["cli.main.0.wall_s"] == 10.0
    assert out["cli.main.1.wall_s"] == 0.0
    assert out["cli.main.self_s"] == pytest.approx(2.0)
    assert out[f"{layers.EVOLVE}.self_s"] == pytest.approx(7.0)
    assert out[f"{layers.EVOLVE}.calls"] == 1.0
    assert out[f"{layers.EVOLVE}.s_per_sample"] == pytest.approx(2.0)
    assert out["moments.occ_rel_err"] == 1e-9
    assert out["trace.layer_cover"] == pytest.approx(8.0 / 10.5)


@pytest.mark.filterwarnings("ignore:top-level population")  # tiny truncation on purpose
def test_install_wraps_and_restores(tmp_path):
    from mwsqueeze import cli, fock, moments

    originals = (cli.main, moments.evolve_moments, fock.ModeLayout.occupation_arrays,
                 scipy.linalg.expm, numpy.linalg.solve)
    cfg = tmp_path / "evolve.json"
    cfg.write_text(json.dumps({"route": "all", "r": 3.0, "theta_hz": 1e4,
                               "num_samples": 3, "dims": [4, 4, 3]}))
    rec = Recorder()
    layers.install(rec)
    try:
        assert cli.main(["evolve", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    finally:
        rec.restore()
    assert (cli.main, moments.evolve_moments, fock.ModeLayout.occupation_arrays,
            scipy.linalg.expm, numpy.linalg.solve) == originals
    out = layers.metrics(rec, 0, 1.0, {})
    assert out[f"{layers.EVOLVE}.calls"] == 1.0
    assert out[f"{layers.EVOLVE}.dim_max"] == 48.0
    assert out[f"{layers.EVOLVE}.samples"] == 3.0
    assert out["fock_dynamics.expm_full_calls"] >= 1.0
    assert out["fock_dynamics.retained_state_bytes"] == 3 * 48 * 16
    assert out["moments.evolve_moments.samples"] == 3.0
    assert out["fock.mode_annihilator.calls"] == 3.0
    assert out["cli.write_csv.bytes"] > 0
    main = next(s for s in rec.spans if s.name == "cli.main")
    assert all(s.parent is not None for s in rec.spans if s is not main)
