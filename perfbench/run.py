"""Run one benchmark workload through ``mwsqueeze.cli.main`` and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the program is imported from its
``src`` directory).  Load model: one process, one client thread, a closed
loop.  The run first times ``import mwsqueeze.cli`` in fresh interpreters,
then repeats the workload's invocation sequence, each invocation starting
when the previous one returns, until ``--seconds`` of measured time have
passed (at least one sequence).  Outputs go to a scratch directory inside
the checkout, are checked, and are deleted.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the layers' public functions are wrapped from
outside (see ``layers.py``) and the last line carries per-layer metrics.  The
line before it is a report: environment, per-invocation exit codes and
check failures, wall times, the samples behind every median, and the expm
count.

The gated times are CPU times: on a virtual machine whose host steals CPU in
episodes of minutes, wall time moved by a third between runs of one workload
while CPU time moved by a tenth.  Wall time is reported, not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
SETUP_IMPORTS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
IMPORT_PROBE = (
    "import time\n"
    "t, c = time.perf_counter(), time.process_time()\n"
    "import mwsqueeze.cli\n"
    "print(time.perf_counter() - t, time.process_time() - c)\n"
)


def time_imports(count: int, importtime: bool) -> tuple[list, list, list]:
    """Import of ``mwsqueeze.cli`` in fresh interpreters, after one warm-up.

    Returns the wall times, the CPU times and, with ``importtime``, each
    run's ``-X importtime`` log.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_PROBE]
    walls, cpus, logs = [], [], []
    for i in range(count + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            wall, cpu = proc.stdout.split()[-2:]
            walls.append(float(wall))
            cpus.append(float(cpu))
            logs.append(proc.stderr)
    return walls, cpus, logs


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def invoke(cli, inv, cfg_path: Path, outdir: Path):
    """One CLI invocation; returns its exit code, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([inv.command, str(cfg_path), "--output-dir", str(outdir)])
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            return f"raised {exc!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mwsqueeze" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'mwsqueeze' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    invocations = WORKLOADS[args.workload](args.seed)
    setup_walls, setup_cpus, import_logs = time_imports(SETUP_IMPORTS, importtime=bool(args.trace))

    sys.path.insert(0, str(SRC))
    import mwsqueeze.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "mwsqueeze":
        print(f"imported {cli.__file__}, not the checkout's program", file=sys.stderr)
        return 2
    import layers
    from spans import Recorder

    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg_paths = []
    for i, inv in enumerate(invocations):
        cfg_paths.append(workdir / f"config{i}.json")
        cfg_paths[-1].write_text(json.dumps(inv.config))

    rec = Recorder() if args.trace else None
    expm_sizes = Counter()
    walls, cpus, layer_runs = [], [], []
    exits = [[] for _ in invocations]
    failures = [[] for _ in invocations]
    attempted = failed = 0
    try:
        while not walls or sum(walls) < args.seconds:
            run = len(walls)
            rundir = workdir / f"run{run}"
            if rec is not None:
                rec.run = run
                layers.install(rec)
                undo = rec.restore
            else:
                patches = Recorder()
                layers.count_expm(patches, lambda n: expm_sizes.update((n,)))
                undo = patches.restore
            codes = []
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                for i, inv in enumerate(invocations):
                    codes.append(invoke(cli, inv, cfg_paths[i], rundir / str(i)))
            finally:
                wall = time.perf_counter() - t0
                cpu = cpu_seconds() - cpu0
                undo()
            walls.append(wall)
            cpus.append(cpu)
            measured = {}
            for i, (inv, code) in enumerate(zip(invocations, codes)):
                fails = inv.check(code, rundir / str(i), measured)
                attempted += 1
                failed += bool(fails)
                exits[i].append(code)
                failures[i] += [f"run {run}: {f}" for f in fails]
            if rec is not None:
                layer_runs.append(layers.metrics(rec, run, wall, measured))
            shutil.rmtree(rundir, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    if rec is None:
        metrics = {
            "setup_s": statistics.median(setup_cpus),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = layers.median_dicts(layer_runs)
        metrics.update(layers.median_dicts([layers.import_times(log) for log in import_logs]))
        units = layers.UNITS
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "runs": len(walls),
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "cpu_s_samples": cpus,
        "setup_s_samples": setup_cpus,
        "setup_wall_s_samples": setup_walls,
        "fail_frac": failed / attempted,
        "invocations": [
            {"command": inv.command, "config": inv.config, "expected_exit": inv.expected_exit,
             "exits": exits[i], "failures": failures[i]}
            for i, inv in enumerate(invocations)
        ],
    }
    if rec is None:
        report["expm_calls_by_dim"] = {str(n): c for n, c in sorted(expm_sizes.items())}
    else:
        report["threads_seen"] = len({s.thread for s in rec.spans})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
