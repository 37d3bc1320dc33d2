"""Which program functions the traced run wraps, and the per-layer metrics.

Each layer is a module of ``mwsqueeze``.  Wrapping is done from outside: the
public functions below are replaced, for the duration of one run, on every
loaded ``mwsqueeze`` module that holds them (``from .fock import ...`` makes
a second reference).  ``scipy.linalg.expm`` and ``numpy.linalg.solve`` are
wrapped as counters only, attributed to the span open on the calling thread.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict

from spans import Recorder, overlap, self_times
from workloads import MAX_INVOCATIONS

MODULES = ("cli", "fock", "fock_dynamics", "moments", "spectrum", "raman", "closed_form")
EVOLVE = "fock_dynamics.evolve_state"
SPECTRUM = "spectrum.squeezing_spectrum"
RAMAN = "raman.adiabatic_error"

# unit of every per-layer metric besides the import and per-invocation times
LAYER_METRICS = {
    "cli.main.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "fock.mode_annihilator.calls": "count",
    "fock.mode_annihilator.self_s": "s",
    "fock.ModeLayout.occupation_arrays.calls": "count",
    "fock_dynamics.evolve_state.calls": "count",
    "fock_dynamics.evolve_state.self_s": "s",
    "fock_dynamics.evolve_state.samples": "count",
    "fock_dynamics.evolve_state.dim_max": "count",
    "fock_dynamics.evolve_state.s_per_sample": "s",
    "fock_dynamics.build_effective_hamiltonian.self_s": "s",
    "fock_dynamics.build_effective_hamiltonian.nnz": "count",
    "fock_dynamics.relative_number_squeezing.calls": "count",
    "fock_dynamics.relative_number_squeezing.self_s": "s",
    "fock_dynamics.expm_full_calls": "count",
    "fock_dynamics.expm_small_calls": "count",
    "fock_dynamics.expm_bytes": "B",
    "fock_dynamics.retained_state_bytes": "B",
    "fock_dynamics.occ_abs_err": "photons",
    "moments.evolve_moments.calls": "count",
    "moments.evolve_moments.self_s": "s",
    "moments.evolve_moments.samples": "count",
    "moments.evolve_moments.s_per_sample": "s",
    "moments.zeta12_from_moments.self_s": "s",
    "moments.occ_rel_err": "ratio",
    "moments.zeta12_abs_err": "ratio",
    "closed_form.occupations_closed_form.calls": "count",
    "closed_form.occupations_closed_form.self_s": "s",
    "spectrum.squeezing_spectrum.calls": "count",
    "spectrum.squeezing_spectrum.self_s": "s",
    "spectrum.squeezing_spectrum.points": "count",
    "spectrum.squeezing_spectrum.s_per_point": "s",
    "spectrum.solve_calls": "count",
    "spectrum.overlap": "ratio",
    "raman.adiabatic_error.calls": "count",
    "raman.adiabatic_error.self_s": "s",
    "raman.adiabatic_error.basis_dim_max": "count",
    "trace.wall_s": "s",
    "trace.layer_cover": "ratio",
}
UNITS = {
    **{f"setup.{m}.import_s": "s" for m in MODULES},
    **{f"cli.main.{i}.wall_s": "s" for i in range(MAX_INVOCATIONS)},
    **LAYER_METRICS,
}
# spans whose ".calls" metric is their number
COUNTED_SPANS = {
    "fock.mode_annihilator", "fock.ModeLayout.occupation_arrays", EVOLVE,
    "fock_dynamics.relative_number_squeezing", "moments.evolve_moments",
    "closed_form.occupations_closed_form", SPECTRUM, RAMAN,
}
# measured by the output checks rather than by spans
CHECK_METRICS = ("fock_dynamics.occ_abs_err", "moments.occ_rel_err", "moments.zeta12_abs_err")


def _wrap_everywhere(rec: Recorder, module, attr: str, wrapper):
    """Patch ``attr`` on every loaded mwsqueeze module that shares the object."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if name.startswith("mwsqueeze") and getattr(mod, attr, None) is original:
            rec.patch(mod, attr, wrapper)


def count_expm(rec: Recorder, on_call):
    """Wrap ``scipy.linalg.expm`` to pass each matrix's dimension to ``on_call``.

    ``rec.restore()`` undoes it.
    """
    import scipy.linalg

    expm = scipy.linalg.expm

    def counted_expm(A, *args, **kwargs):
        on_call(A.shape[0])
        return expm(A, *args, **kwargs)

    rec.patch(scipy.linalg, "expm", counted_expm)


def install(rec: Recorder):
    """Wrap the layers' public functions; ``rec.restore()`` undoes it."""
    import numpy.linalg

    from mwsqueeze import cli, closed_form, fock, moments, raman, spectrum
    from mwsqueeze import fock_dynamics as fdyn

    def traced(module, attr, name, **hooks):
        _wrap_everywhere(rec, module, attr, rec.wrap(name, getattr(module, attr), **hooks))

    def csv_bytes(span, args, kwargs, result):
        rec.count("cli.write_csv.bytes", os.path.getsize(args[0]))

    def evolve_open(span, args, kwargs):
        span.attrs = {"dim": args[0].layout.dim}

    def evolve_close(span, args, kwargs, traj):
        dim = span.attrs["dim"]
        rec.count(f"{EVOLVE}.samples", len(traj.times))
        rec.peak(f"{EVOLVE}.dim_max", dim)
        rec.count("fock_dynamics.retained_state_bytes", 16 * dim * len(traj.states))

    def nnz(span, args, kwargs, H):
        rec.count("fock_dynamics.build_effective_hamiltonian.nnz", H.matrix.nnz)

    def moment_samples(span, args, kwargs, out):
        rec.count("moments.evolve_moments.samples", len(out))

    def spectrum_points(span, args, kwargs, result):
        rec.count(f"{SPECTRUM}.points", len(result.omega))

    traced(cli, "main", "cli.main", root=True)
    traced(cli, "write_csv", "cli.write_csv", on_close=csv_bytes)
    traced(fock, "mode_annihilator", "fock.mode_annihilator")
    rec.patch(fock.ModeLayout, "occupation_arrays", rec.wrap(
        "fock.ModeLayout.occupation_arrays", fock.ModeLayout.occupation_arrays))
    traced(fdyn, "evolve_state", EVOLVE, on_open=evolve_open, on_close=evolve_close)
    traced(fdyn, "build_effective_hamiltonian", "fock_dynamics.build_effective_hamiltonian",
           on_close=nnz)
    traced(fdyn, "relative_number_squeezing", "fock_dynamics.relative_number_squeezing")
    traced(moments, "evolve_moments", "moments.evolve_moments", on_close=moment_samples)
    traced(moments, "zeta12_from_moments", "moments.zeta12_from_moments")
    traced(closed_form, "occupations_closed_form", "closed_form.occupations_closed_form")
    traced(spectrum, "squeezing_spectrum", SPECTRUM, on_close=spectrum_points)
    traced(raman, "adiabatic_error", RAMAN)

    basis_init = raman.AtomicBasis.__init__

    def counted_basis_init(self, *args, **kwargs):
        basis_init(self, *args, **kwargs)
        top = rec.current()
        if top is not None and top.name == RAMAN:
            rec.peak(f"{RAMAN}.basis_dim_max", self.dim)

    rec.patch(raman.AtomicBasis, "__init__", counted_basis_init)

    def expm_in_evolve(n):
        top = rec.current()
        if top is not None and top.name == EVOLVE:
            kind = "full" if n == top.attrs["dim"] else "small"
            rec.count(f"fock_dynamics.expm_{kind}_calls")
            rec.count("fock_dynamics.expm_bytes", 16 * n * n)

    count_expm(rec, expm_in_evolve)

    solve = numpy.linalg.solve

    def counted_solve(*args, **kwargs):
        top = rec.current()
        if top is not None and top.name == SPECTRUM:
            rec.count("spectrum.solve_calls")
        return solve(*args, **kwargs)

    rec.patch(numpy.linalg, "solve", counted_solve)


def metrics(rec: Recorder, run: int, wall: float, measured: dict) -> dict:
    """Per-layer metrics of one traced run over a workload's invocations."""
    spans = [s for s in rec.spans if s.run == run]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    mains = sorted(by_name["cli.main"], key=lambda s: s.start)
    for i in range(MAX_INVOCATIONS):
        out[f"cli.main.{i}.wall_s"] = mains[i].duration if i < len(mains) else 0.0
    for name in LAYER_METRICS:
        span_name, _, kind = name.rpartition(".")
        if kind == "calls" and span_name in COUNTED_SPANS:
            out[name] = float(len(by_name[span_name]))
        elif kind == "self_s":
            out[name] = sum((selfs[s.id] for s in by_name[span_name]), 0.0)
        else:
            out[name] = rec.counters.get((run, name), 0.0)
    for name in CHECK_METRICS:
        out[name] = measured.get(name, 0.0)
    for span_name, per in ((EVOLVE, "samples"), ("moments.evolve_moments", "samples"),
                           (SPECTRUM, "points")):
        work = out[f"{span_name}.{per}"]
        total = sum((s.duration for s in by_name[span_name]), 0.0)
        out[f"{span_name}.s_per_{per[:-1]}"] = total / work if work else 0.0
    out["spectrum.overlap"] = overlap(by_name[SPECTRUM])
    out["trace.wall_s"] = wall
    main_self = out["cli.main.self_s"]
    out["trace.layer_cover"] = (sum(s.duration for s in mains) - main_self) / wall
    return out


def import_times(stderr_text: str) -> dict:
    """``setup.<module>.import_s`` from one ``python -X importtime`` log.

    A module the log does not list was not imported at start-up: 0 s.
    """
    out = {f"setup.{m}.import_s": 0.0 for m in MODULES}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        module = parts[2]
        if module.startswith("mwsqueeze.") and module[len("mwsqueeze."):] in MODULES:
            out[f"setup.{module[len('mwsqueeze.'):]}.import_s"] = int(parts[1]) * 1e-6
    return out


def median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
