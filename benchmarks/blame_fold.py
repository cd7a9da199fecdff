#!/usr/bin/env python3
"""Exact bytecodes of the first ``cluster.obs.registry`` read on traced
``examples/scenario_mixed.json``: the blame fold a traced run leaves to
that read.

    python3 benchmarks/blame_fold.py > results/blame_fold.json

Prints one ``{"metrics": {name: {"value", "unit"}}}`` line, the shape
``benchmarks/e2e/run.py`` ends a workload with, so ``python -m repro obs
diff benchmarks/gates.json results --check`` reads it like a workload's
result (the ``blame_fold`` row of ``gates.json``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.obs.analyze  # noqa: E402,F401  the read pays for the fold, not for the import
from repro.runtime.scenario import run_scenario  # noqa: E402


def main() -> int:
    scenario = json.loads((ROOT / "examples" / "scenario_mixed.json").read_text())
    scenario["observability"] = {"trace": True}
    _, cluster, _ = run_scenario(scenario)
    ops = 0

    def opcodes(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return opcodes

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return opcodes

    sys.settrace(on_call)
    cluster.obs.registry
    sys.settrace(None)
    metric = {"value": ops, "unit": "count"}
    print(json.dumps({"metrics": {"obs.first_registry_read_ops": metric}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
