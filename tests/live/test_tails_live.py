"""Live-plane tail telemetry: the exact edge table and /tails.

One traced 2-peer UDS run (with an SLO block) is shared across the
assertions; a second run polls the in-flight ``/tails`` endpoint.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.live import cluster as live_cluster
from repro.live import run_live_scenario
from repro.obs.analyze import analyze_events
from repro.obs.merge import OffsetSample
from repro.obs.tails import evaluate_slo_offline, parse_slo

_TIMEOUT = 30.0


def _scenario(count=12):
    return {
        "name": "tails-live",
        "cluster": {
            "n_nodes": 2,
            "networks": [["mx", 1]],
            "engine": "optimizing",
            "strategy": "aggregate",
            "seed": 0,
        },
        "workloads": [
            {"app": "pingpong", "src": "n0", "dst": "n1", "size": 64,
             "count": count},
        ],
    }


_OBS = {
    "trace": True,
    "slo": [
        {"name": "wire-fast", "edge": "*", "threshold_us": 1e6,
         "target": 0.99, "windows": [0.5, 2.0]},
    ],
}


@pytest.fixture(scope="module")
def traced_run():
    return run_live_scenario(_scenario(), timeout=_TIMEOUT, observability=_OBS)


class TestPostRunTails:
    def test_every_edge_has_nonzero_p99(self, traced_run):
        edges = traced_run.tails["edges"]
        # Ping-pong traffic flows both ways; each direction is an edge.
        assert set(edges) == {"n0->n1", "n1->n0"}
        for stats in edges.values():
            assert stats["count"] > 0
            assert stats["p999_us"] >= stats["p99_us"] >= stats["p50_us"] > 0

    def test_edges_and_slo_are_the_analyzers(self, traced_run):
        """The payload is the offline analysis of the aligned trace,
        bit for bit: one edge table, no sketch beside it."""
        analysis = analyze_events(traced_run.aligned_events)
        assert traced_run.tails["edges"] == {
            name: edge.stats().to_dict() for name, edge in analysis.edges.items()
        }
        for name, stats in traced_run.tails["edges"].items():
            assert stats["p99_us"] == analysis.edges[name].tails()["p99"] * 1e6
        statuses = evaluate_slo_offline(
            analysis.edges, parse_slo(_OBS["slo"]), t_end=analysis.span[1]
        )
        assert traced_run.tails["slo"] == [s.to_dict() for s in statuses]
        assert "note" not in traced_run.tails

    def test_rails_present(self, traced_run):
        assert set(traced_run.tails) >= {"edges", "rails"}
        assert {rail.split(".")[0] for rail in traced_run.tails["rails"]} == {"n0", "n1"}
        assert "messages" not in traced_run.tails  # exact, in the report
        # Exact, from the same pass over the aligned trace as the edges.
        analysis = analyze_events(traced_run.aligned_events)
        assert traced_run.tails["rails"] == {
            nic: rail.stats().to_dict() for nic, rail in analysis.rails.items()
        }

    def test_slo_verdicts_attached(self, traced_run):
        statuses = traced_run.tails["slo"]
        # One verdict per matching edge for the single "*" objective.
        assert {s["edge"] for s in statuses} == {"n0->n1", "n1->n0"}
        for status in statuses:
            assert status["objective"] == "wire-fast"
            assert set(status["burn"]) == {"0.5s", "2s"}
            # Loopback one-way latency is far below the 1s threshold.
            assert status["violated"] is False

    def test_report_p999_exact_from_records(self, traced_run):
        latency = traced_run.report.latency
        exact = [r.latency for r in traced_run.records]
        assert latency.count == len(exact) == traced_run.report.messages
        assert (latency.p99, latency.p999) == tuple(np.percentile(exact, [99, 99.9]))
        assert latency.p999 >= latency.p99 > 0


class TestLiveTailsEndpoint:
    def test_tails_served_during_run(self):
        port = 19632
        grabbed: dict[str, object] = {}

        def poll():
            deadline = time.time() + _TIMEOUT
            while time.time() < deadline and "tails" not in grabbed:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/tails", timeout=1
                    ) as resp:
                        payload = json.loads(resp.read())
                    edges = payload.get("edges") or {}
                    if edges and all(e["p99_us"] > 0 for e in edges.values()):
                        grabbed["tails"] = payload
                except OSError:
                    time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        result = run_live_scenario(
            _scenario(count=40), timeout=_TIMEOUT,
            observability=_OBS, serve=f"127.0.0.1:{port}",
        )
        poller.join(timeout=5)
        assert result.report.messages == 80
        assert "tails" in grabbed, "/tails never answered with edge data"
        payload = grabbed["tails"]
        # Mid-run edges come from the offset-aligned merge, like the
        # post-run ones: no raw-clock disclaimer, no negative latency.
        assert "note" not in payload
        assert payload["slo"][0]["objective"] == "wire-fast"
        assert set(payload) == set(result.tails)
        for name, stats in payload["edges"].items():
            final = result.tails["edges"][name]
            assert 0 < stats["count"] <= final["count"]
            assert stats["max_us"] >= stats["p99_us"] >= stats["p50_us"] >= 0


class TestMidRunTails:
    def test_edges_are_offset_aligned(self):
        """``/tails`` reads the same aligned merge as ``/why``: n1's clock
        runs 1 ms ahead, so a raw 1.1 ms crossing is a 100 us one."""
        collector = live_cluster._ObsCollector(epoch=0.0, time_scale=1.0)
        collector.samples = [
            OffsetSample("n0", t0=1.0, t1=1.0, peer_now=1.0),
            OffsetSample("n1", t0=1.0, t1=1.0, peer_now=1.001),
        ]
        collector.ingest({"node": "n0", "events": []})
        collector.ingest({"node": "n1", "events": [
            {"time": 5.0 + i + 1.1e-3, "source": "live:n1", "kind": "live.recv",
             "detail": {"src": "n0", "dst": "n1", "sent_at": 5.0 + i, "corr": f"n0#{i}"}}
            for i in range(3)
        ]})
        state = live_cluster._ObsState("mid-run", collector, parse_slo(_OBS["slo"]))
        payload = state.tails()
        assert "note" not in payload
        edge = payload["edges"]["n0->n1"]
        assert edge["count"] == 3
        assert edge["p50_us"] == pytest.approx(100.0)
        assert payload["slo"][0]["edge"] == "n0->n1"
