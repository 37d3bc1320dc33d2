"""Run every workload at one seed, untraced and traced, and print all metrics.

    python3 perfbench/run_all.py --seed N

For every workload this runs ``run.py`` once with tracing off and once with
tracing on, in fresh interpreters, one after the other, each for the
``run_seconds`` of ``BENCHMARK.json``.  It prints every end-to-end metric
with its unit, the untraced ``wall_s``, ``fail_frac`` (failed / attempted
invocations), the tracing overhead (traced ``wall_s`` / untraced ``wall_s``),
and every per-layer metric.  Exit status 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    rows = []
    for name in WORKLOADS:
        report, plain = run(name, args.seed, seconds, 0)
        traced_report, traced = run(name, args.seed, seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        for metric, m in plain["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "wall_s", report["wall_s"], "s"))
        rows.append((name, "fail_frac", report["fail_frac"], "ratio"))
        rows.append((name, "sequences", report["runs"], "count"))
        rows.append((name, "tracing_overhead",
                     traced["metrics"]["trace.wall_s"]["value"] / report["wall_s"],
                     "ratio"))
        for metric, m in traced["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        for inv in report["invocations"] + traced_report["invocations"]:
            for failure in inv["failures"]:
                print(f"FAIL {name} {inv['command']}: {failure}")
    width = max(len(r[1]) for r in rows)
    for workload, metric, value, unit in rows:
        print(f"{workload:16s} {metric:{width}s} {value:>14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
