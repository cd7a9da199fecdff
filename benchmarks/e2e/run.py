#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the communication engine.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace {0,1}] [--smoke] [--check]

Prints every metric by name with its unit, checks the program's outputs,
and ends each (workload, trace mode) with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics from untraced runs, ``--trace 1`` the per-layer
metrics (exact bytecode counts, layer-crossing spans, work counters);
without ``--trace`` both are run, without ``--workload`` every workload.
The program is measured from outside: nothing under ``src/`` is edited
or imported specially.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sim_mixed", "sim_storm", "sim_traced", "live_pingpong", "live_stream")


def load_spec(name: str) -> dict:
    with open(os.path.join(HERE, "workloads", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(name: str, trace: bool, args) -> dict:
    """One (workload, trace mode) run; returns the printed result object."""
    import live
    import sim
    from metrics import END_TO_END, PER_LAYER

    spec = load_spec(name)
    seed = spec["seed"] if args.seed is None else args.seed
    plane = {"sim": sim, "live": live}[spec["plane"]]
    outcome = plane.run(
        spec, seed, args.seconds, trace, args.smoke, args.check,
        SRC, os.path.join(HERE, "out"),
    )
    measured = outcome["metrics"]
    gates = list(outcome["gates"])
    metrics = {}
    for metric_name, unit, _better in (PER_LAYER if trace else END_TO_END):
        # A per-layer metric of the other plane reads 0; an end-to-end
        # metric exists on every workload and may not be missing.
        if not trace and metric_name not in measured:
            gates.append((f"reported:{metric_name}", False, "missing"))
        metrics[metric_name] = {"value": measured.get(metric_name, 0.0), "unit": unit}
    correct = all(ok for _name, ok, _detail in gates) and outcome["failed"] == 0

    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          f"attempted={outcome['attempted']} failed={outcome['failed']}")
    for metric_name, entry in metrics.items():
        print(f"{metric_name:<42} {entry['value']:>16.6f} {entry['unit']}")
    for gate_name, ok, detail in gates:
        if args.check or not ok:
            print(f"gate {gate_name:<28} {'ok' if ok else 'FAILED'} {detail if not ok else ''}")
    result = {"correct": correct, "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, help="default: the spec's seed (2006)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes (2 segments, 200 round trips): shape, not numbers")
    parser.add_argument("--check", action="store_true",
                        help="print every gate and repeat the bytecode count to compare")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for the runner and everything it starts.  This host grants
    # its second vCPU only in bursts: under sustained two-core load 46-90 %
    # of the time is stolen, and the live round trip swings 2.3x with the
    # hypervisor's mood.  One CPU is what the host reliably gives.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = (args.workload,) if args.workload else WORKLOADS
    modes = (bool(args.trace),) if args.trace is not None else (False, True)
    results = [run_one(name, trace, args) for name in names for trace in modes]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
