"""Tests for metrics collection and session reports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.network.virtual import TrafficClass
from repro.runtime import Cluster, run_session
from repro.runtime.metrics import LatencySummary
from repro.util.errors import SimulationError


class TestLatencySummary:
    def test_of_samples(self):
        s = LatencySummary.of([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert (s.p50, s.p90, s.p99, s.p999) == tuple(
            np.percentile([1.0, 2.0, 3.0], [50, 90, 99, 99.9])
        )

    def test_empty_is_nan(self):
        s = LatencySummary.of([])
        assert s.count == 0
        assert math.isnan(s.mean) and math.isnan(s.p999)
        assert s.to_dict()["p999"] is None


ROOT = Path(__file__).resolve().parents[2]

#: Runs one session of a scenario in a fresh interpreter and prints the
#: modules it left loaded.
_SESSION_MODULES = """
import json, sys
from repro.runtime.scenario import build_scenario
from repro.runtime.session import run_session
spec = json.load(open(sys.argv[1]))
if sys.argv[2] == "traced":
    spec["observability"] = {"trace": True}
else:
    spec.pop("observability", None)
cluster, apps = build_scenario(spec)
run = spec.get("run", {})
report = run_session(cluster, [app.install for app in apps],
                     until=run.get("until"), warmup=run.get("warmup", 0.0))
assert report.messages > 0 and (cluster.obs is not None) == (sys.argv[2] == "traced")
print(json.dumps(sorted(sys.modules)))
"""


def _session_modules(mode: str, prelude: str = "") -> list[str]:
    """The modules a fresh interpreter holds after one session."""
    fresh = subprocess.run(
        [sys.executable, "-c", prelude + _SESSION_MODULES,
         str(ROOT / "examples" / "scenario_mixed.json"), mode],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(fresh.stdout)


class TestSessionImports:
    @pytest.mark.parametrize("mode", ["untraced", "traced"])
    def test_a_session_loads_no_numpy(self, mode):
        """A run needs the standard library only: the streams, the report's
        mean and its percentiles are Python, and numpy alone costs about
        14 MB and 120 ms of CPU per process."""
        modules = _session_modules(mode)
        assert "repro.runtime.session" in modules
        assert [m for m in modules if m.split(".")[0] == "numpy"] == []

    @pytest.mark.parametrize("mode", ["untraced", "traced"])
    def test_a_session_runs_with_numpy_blocked(self, mode):
        """An ``import numpy`` anywhere on the run path raises here."""
        modules = _session_modules(mode, 'import sys\nsys.modules["numpy"] = None\n')
        assert "repro.runtime.session" in modules


#: Runs one traced session of a scenario in a fresh interpreter, then
#: reads the plane's registry; prints what was loaded before the read
#: and the blame series the read exported.
_SESSION_THEN_READ = """
import json, sys
from repro.runtime.scenario import build_scenario
from repro.runtime.session import run_session
spec = json.load(open(sys.argv[1]))
spec["observability"] = {"trace": True}
cluster, apps = build_scenario(spec)
run = spec.get("run", {})
run_session(cluster, [app.install for app in apps],
            until=run.get("until"), warmup=run.get("warmup", 0.0))
loaded = "repro.obs.analyze" in sys.modules
blame = [m for m in cluster.obs.registry if m.name == "repro_blame_seconds_total"]
print(json.dumps([loaded, "repro.obs.analyze" in sys.modules, len(blame)]))
"""


class TestBlameOnRead:
    def test_a_traced_session_leaves_the_fold_to_the_registry_read(self):
        """A traced run records and stops there: the trace fold's module
        loads, and blame is attributed, when the registry is first read."""
        fresh = subprocess.run(
            [sys.executable, "-c", _SESSION_THEN_READ,
             str(ROOT / "examples" / "scenario_mixed.json")],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert json.loads(fresh.stdout) == [False, True, 96]


#: Runs one cold ``sim_traced`` ledger segment in a fresh interpreter
#: (the workload's scenario at its seed, as the benchmark builds it),
#: counting the collections of each generation the run started; then
#: counts the recorded events still tracked after full collections.
#: One is not enough for every event: the collector checks an event
#: before the fresh tuples it holds (a dispatch's ``messages``, which
#: holds one tuple per slice), so each nesting level costs a pass.
_TRACED_SEGMENT_GC = """
import gc, json, sys
from repro.runtime.scenario import build_scenario
from repro.runtime.session import run_session
spec = json.load(open(sys.argv[1]))
scenario = spec["scenario"]
scenario["cluster"]["seed"] = spec["seed"]
cluster, apps = build_scenario(scenario)
started = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        started[info["generation"]] += 1
gc.callbacks.append(count)
run = scenario.get("run", {})
run_session(cluster, [app.install for app in apps],
            until=run.get("until"), warmup=run.get("warmup", 0.0))
gc.callbacks.remove(count)
events = cluster.obs.sink.events
for _ in range(3):
    gc.collect()
print(json.dumps([started, len(events), sum(map(gc.is_tracked, events))]))
"""


class TestTracedRunGarbage:
    def test_a_recorded_trace_never_reaches_the_oldest_generation(self):
        """Every trace event is a tuple of atoms: the first young
        collection untracks it, so a traced run promotes no events and
        starts no generation-2 collection."""
        fresh = subprocess.run(
            [sys.executable, "-c", _TRACED_SEGMENT_GC,
             str(ROOT / "benchmarks" / "e2e" / "workloads" / "sim_traced.json")],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        started, recorded, tracked = json.loads(fresh.stdout)
        assert recorded > 10_000
        assert started[2] == 0, started
        assert tracked == 0


class TestReport:
    def make_report(self, **send_kwargs):
        c = Cluster(seed=2)
        api = c.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        for _ in range(10):
            api.send(flow, 1024, **send_kwargs)
        c.run_until_idle()
        return c.report()

    def test_counts_and_bytes(self):
        report = self.make_report(header_size=0)
        assert report.messages == 10
        assert report.total_bytes == 10 * 1024
        assert report.message_rate > 0
        assert report.duration > 0

    def test_by_class_breakdown(self):
        report = self.make_report()
        assert TrafficClass.BULK in report.latency_by_class
        assert report.latency_by_class[TrafficClass.BULK].count == 10
        assert TrafficClass.CONTROL not in report.latency_by_class

    def test_row_keys(self):
        row = self.make_report().row()
        assert {"messages", "tput_MBps", "mean_lat_us", "transactions", "agg_ratio"} <= set(row)

    def test_nic_utilization_bounded(self):
        report = self.make_report()
        assert 0 < report.nic_utilization <= 1.0

    def test_latency_filtering(self):
        c = Cluster(seed=2)
        api = c.api("n0")
        flow = api.open_flow("n1", name="special")
        api.send(flow, 64)
        c.run_until_idle()
        assert len(c.metrics.latencies(flow_name="special")) == 1
        assert c.metrics.latencies(flow_name="other") == []
        assert len(c.metrics.latencies(traffic_class=TrafficClass.DEFAULT)) == 1


class TestRunSession:
    def test_warmup_excludes_early_messages(self):
        from repro.middleware import StreamApp

        c = Cluster(seed=4)
        app = StreamApp(count=50, size=128, interval=5e-6, jitter=False)
        report = run_session(c, [app.install], warmup=100e-6)
        assert 0 < report.messages < 50

    def test_until_stops_clock(self):
        from repro.middleware import StreamApp

        c = Cluster(seed=4)
        app = StreamApp(count=10_000, size=128, interval=5e-6)
        report = run_session(c, [app.install], until=200e-6)
        assert c.sim.now == 200e-6
        assert report.messages < 10_000

    def test_validation(self):
        c = Cluster()
        with pytest.raises(SimulationError):
            run_session(c, [], warmup=-1.0)
        with pytest.raises(SimulationError):
            run_session(c, [], until=1.0, warmup=2.0)
