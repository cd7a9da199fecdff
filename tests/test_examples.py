"""Smoke tests: every shipped example must run clean.

The examples are a deliverable; running them in-process (monkeypatched
``__main__``-style) keeps them from rotting as the API evolves.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.scenario import load_scenario_file

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))
WORKLOADS_DIR = EXAMPLES_DIR.parent / "benchmarks" / "e2e" / "workloads"
#: Example scenarios that only the live plane runs (``repro live run``).
LIVE_EXAMPLES = {"scenario_chaos", "scenario_live"}


def _checked_in_scenarios():
    """``(plane, scenario)`` of every example and ledger workload."""
    for path in sorted(EXAMPLES_DIR.glob("*.json")):
        plane = "live" if path.stem in LIVE_EXAMPLES else "sim"
        yield pytest.param(plane, load_scenario_file(path), id=f"examples-{path.stem}")
    for path in sorted(WORKLOADS_DIR.glob("*.json")):
        workload = json.loads(path.read_text())
        scenario = workload["scenario"]
        if "smoke_count" in workload:  # a live workload's counts are set per run
            for entry in scenario["workloads"]:
                entry["count"] = workload["smoke_count"]
        yield pytest.param(workload["plane"], scenario, id=f"workload-{path.stem}")


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLE_SCRIPTS}
        assert {"quickstart.py", "middleware_mix.py", "heterogeneous_rails.py"} <= names
        assert len(EXAMPLE_SCRIPTS) >= 3

    @pytest.mark.parametrize(
        "script", EXAMPLE_SCRIPTS, ids=[p.stem for p in EXAMPLE_SCRIPTS]
    )
    def test_example_runs(self, script, capsys):
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip(), f"{script.name} produced no output"

    @pytest.mark.parametrize("plane, scenario", _checked_in_scenarios())
    def test_scenario_file_valid(self, plane, scenario):
        """Every checked-in scenario reads on the plane that runs it: the
        examples and the benchmark ledger's workloads (read, never
        written)."""
        from repro.runtime.cluster import refuse
        from repro.runtime.scenario import build_scenario, build_workloads, parse_cluster

        if plane == "sim":
            _, apps = build_scenario(scenario)
        else:
            spec = parse_cluster(scenario)
            refuse(plane, spec["faults"], spec["observability"])
            apps = build_workloads(scenario)
        assert len(apps) == len(scenario["workloads"])

    def test_quickstart_via_subprocess(self):
        """One example through a real interpreter (import paths, shebang)."""
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "aggregation ratio" in result.stdout
