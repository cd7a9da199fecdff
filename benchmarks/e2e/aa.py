#!/usr/bin/env python3
"""A/A test: does the benchmark agree with itself on unchanged code?

    python3 benchmarks/e2e/aa.py [--runs 5] [--seconds 20] [--workload W]...

Runs two sets of N full runs (``--trace 0`` and ``--trace 1``) of the same
checkout, run i of both sets with seed ``--seed + i``.  For every
workload × bounded metric it prints the two set medians, how much worse
the second is than the first, the bound, and each set's own spread
(interquartile range ÷ median).  Exits 1 when any second median is worse
than the first by more than its bound — on unchanged code that means the
benchmark cannot resolve its own bound.

End-to-end bounds come from ``BENCHMARK.json``; the bounds of the
plane-specific guard metrics from the workload specs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from metrics import median_iqr
from run import HERE, ROOT, WORKLOADS, load_spec


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"aa.py: run.py failed on {workload} seed {seed} trace {trace}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2006, help="seed of run 0")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    end_to_end = [(m["name"], m["better"], m["bound"]) for m in manifest["end_to_end"]]

    exceeded = 0
    print(f"{'workload':<14} {'metric':<16} {'median A':>14} {'median B':>14} "
          f"{'B worse by':>10} {'bound':>7} {'spread A':>9} {'spread B':>9}")
    for workload in args.workload or WORKLOADS:
        guards = [
            (g["name"], "lower" if g["mode"] == "minimize" else "higher", g["bound"])
            for g in load_spec(workload)["metrics"]["guards"]
        ]
        sets = []
        for _ in range(2):
            runs = []
            for i in range(args.runs):
                values = one_run(workload, args.seed + i, args.seconds, 0)
                values.update(one_run(workload, args.seed + i, args.seconds, 1))
                runs.append(values)
            sets.append(runs)
        for name, better, bound in end_to_end + guards:
            a, b = ([run[name] for run in runs] for runs in sets)
            (med_a, spread_a), (med_b, spread_b) = median_iqr(a), median_iqr(b)
            worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
            over = worse > bound
            exceeded += over
            print(f"{workload:<14} {name:<16} {med_a:>14.4f} {med_b:>14.4f} "
                  f"{worse:>+10.2%} {bound:>7.1%} {spread_a:>9.2%} {spread_b:>9.2%}"
                  f"{'  EXCEEDS BOUND' if over else ''}")
            sys.stdout.flush()
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
