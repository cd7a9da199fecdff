"""Live-plane tail telemetry: corrected edge sketches and /tails.

One traced 2-peer UDS run (with an SLO block) is shared across the
assertions; a second run polls the in-flight ``/tails`` endpoint.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.live import run_live_scenario
from repro.obs.analyze import analyze_events

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

    def test_edges_were_offset_corrected(self, traced_run):
        assert traced_run.tails["edges_offset_corrected"] == 2
        # Post-run snapshots are corrected; only mid-run ones carry the
        # raw-clock disclaimer.
        assert "note" not in traced_run.tails

    def test_rails_present(self, traced_run):
        assert set(traced_run.tails) >= {"edges", "rails"}
        assert {rail.split(".")[0] for rail in traced_run.tails["rails"]} == {"n0", "n1"}
        assert "messages" not in traced_run.tails  # exact, in the report

    def test_slo_verdicts_attached(self, traced_run):
        statuses = traced_run.tails["slo"]
        # One verdict per matching edge for the single "*" objective.
        assert {s["edge"] for s in statuses} == {"n0->n1", "n1->n0"}
        for status in statuses:
            assert status["objective"] == "wire-fast"
            assert "cumulative" in status["burn"]
            # Loopback one-way latency is far below the 1s threshold.
            assert status["violated"] is False

    def test_report_p999_exact_from_records(self, traced_run):
        latency = traced_run.report.latency
        exact = [r.latency for r in traced_run.records]
        assert latency.count == len(exact) == traced_run.report.messages
        assert (latency.p99, latency.p999) == tuple(np.percentile(exact, [99, 99.9]))
        assert latency.p999 >= latency.p99 > 0

    def test_sketch_p99_matches_exact_within_rank_error(self, traced_run):
        """The corrected sketch and the offline analysis see the *same*
        crossing samples (same offsets, same clamp), so the sketch's p99
        must land within its documented rank-error window of the exact
        sorted-list quantile."""
        analysis = analyze_events(traced_run.aligned_events)
        for edge_name, stats in traced_run.tails["edges"].items():
            exact = analysis.edges[edge_name]
            assert exact.count == stats["count"]
            ordered = sorted(v * 1e6 for v in exact.latencies)
            n = len(ordered)
            for q, key in ((0.5, "p50_us"), (0.99, "p99_us")):
                # Sketches with n <= k are exact up to rank 1/n; allow
                # one extra rank of slack for interpolation differences.
                bound = 2.0 / n + 1.0 / 64.0
                lo = ordered[max(math.ceil((q - bound) * n) - 1, 0)]
                hi = ordered[min(math.ceil((q + bound) * n), n) - 1]
                assert lo - 1e-3 <= stats[key] <= hi + 1e-3, (
                    f"{edge_name} {key}: {stats[key]} outside "
                    f"[{lo}, {hi}] (n={n})"
                )


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
        assert payload["note"].startswith("mid-run")
        assert payload["slo"][0]["objective"] == "wire-fast"
