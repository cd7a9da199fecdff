"""Smoke test of the e2e benchmark: shape, not numbers.

Run explicitly (``testpaths`` keeps it out of the tier-1 suite)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py

Every workload runs at ``--smoke`` size (2 segments, 200 round trips) in
both trace modes with ``--check``; about two minutes in total.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

from layers import LAYERS, layer_of_relpath
from metrics import END_TO_END, PER_LAYER, median_iqr
from run import HERE, ROOT, SRC, WORKLOADS, load_spec


def test_layer_map_covers_every_source_file():
    package = os.path.join(SRC, "repro")
    named = set()
    for folder, _dirs, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, filename), package)
                layer = layer_of_relpath(relpath)
                assert layer in LAYERS, f"{relpath} -> {layer!r} is not a layer"
                named.add(layer)
    # "python" is for files outside the program only.
    assert "python" not in named
    assert layer_of_relpath("core/strategies/search.py") == "core.decide"
    assert layer_of_relpath("core/brand_new.py") == "core.other"
    assert layer_of_relpath("brand_new/module.py") == "other"


def test_manifest_names_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(PER_LAYER)
    assert manifest["paths"] == [os.path.relpath(HERE, ROOT)]
    per_layer_names = {name for name, _unit, _better in PER_LAYER}
    for workload in WORKLOADS:
        spec = load_spec(workload)
        assert spec["name"] == workload
        assert spec["metrics"]["primary"]["name"] in {n for n, _u, _b in END_TO_END}
        for guard in spec["metrics"]["guards"]:
            assert guard["name"] in per_layer_names


def test_median_and_spread_of_blocks():
    median, iqr = median_iqr([9.0, 10.0, 10.5, 7.0, 4.0, 10.2, 8.8])
    assert median == 9.0
    q1, _q2, q3 = statistics.quantiles([9.0, 10.0, 10.5, 7.0, 4.0, 10.2, 8.8], n=4)
    assert iqr == pytest.approx((q3 - q1) / 9.0)
    assert median_iqr([5.0]) == (5.0, 0.0)


def test_reference_quantum_is_deterministic_work():
    import refload

    assert refload.quantum() > 0
    assert refload.slowdown(refload.NOMINAL_S, refload.NOMINAL_S) == pytest.approx(1.0)
    with refload.Sampler() as sampler:
        pass
    assert len(sampler.quanta) == len(sampler.times) == len(sampler.stolen) >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--smoke", "--check"],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2, "one result per trace mode"
    for result, expected in zip(results, (END_TO_END, PER_LAYER)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [name for name, _unit, _better in expected]
        for name, unit, _better in expected:
            assert result["metrics"][name]["unit"] == unit
    untraced, traced = (r["metrics"] for r in results)
    for name, _unit, _better in END_TO_END:
        assert untraced[name]["value"] > 0, f"{name} must never read 0"
    assert traced["bench.raw_msgs_per_s"]["value"] > 0
    assert traced["bench.host_slowdown"]["value"] > 0
    assert traced["bench.trace_overhead_x"]["value"] > 1.0
    for guard in load_spec(workload)["metrics"]["guards"]:
        assert traced[guard["name"]]["value"] > 0
    if load_spec(workload)["plane"] == "sim":
        layer_ops = sum(traced[f"{layer}.ops_per_msg"]["value"] for layer in LAYERS)
        assert layer_ops == pytest.approx(traced["py_ops_per_msg"]["value"], rel=1e-12)
        assert os.path.exists(os.path.join(HERE, "out", f"{workload}.trace.json"))
