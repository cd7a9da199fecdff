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


class TestSessionImports:
    @pytest.mark.parametrize("mode", ["untraced", "traced"])
    def test_a_session_never_loads_masked_arrays(self, mode):
        """Exact percentiles are computed in Python: ``np.percentile``
        pulls in ``numpy.ma`` (13 ms of CPU, about 2 MB) on every run."""
        fresh = subprocess.run(
            [sys.executable, "-c", _SESSION_MODULES,
             str(ROOT / "examples" / "scenario_mixed.json"), mode],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        modules = json.loads(fresh.stdout)
        assert "repro.runtime.session" in modules
        assert "numpy.ma" not in modules


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
