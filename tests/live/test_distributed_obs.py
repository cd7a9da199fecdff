"""Integration: the distributed observability plane over a real 2-peer run.

One traced UDS live run is shared across the assertions (spawning peer
processes is the expensive part); a second run exercises the in-flight
HTTP endpoint.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.live import run_live_scenario
from repro.obs.analyze import analyze_events, summary_metrics
from repro.obs.causal import collector_report
from repro.obs.export import to_chrome_trace
from repro.obs.merge import KIND_WIRE_RECV
from repro.obs.spans import SpanCollector

_TIMEOUT = 30.0


def _scenario(count=6):
    return {
        "name": "dist-obs",
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


@pytest.fixture(scope="module")
def traced_run():
    return run_live_scenario(
        _scenario(), timeout=_TIMEOUT,
        observability={"trace": True, "sample_interval": 0.005},
    )


class TestMergedTrace:
    def test_crossing_per_delivered_message(self, traced_run):
        # Ping-pong never aggregates across messages, so every delivered
        # message is exactly one correlated wire crossing.
        assert traced_run.crossings_matched >= traced_run.report.messages
        # ... and every completion names its sender's chain: the receiving
        # peer's message.complete carries the sender's (src, message).
        collector = SpanCollector()
        for event in traced_run.aligned_events:
            if event.kind == "message.complete":
                key = (event.detail["src"], event.detail["message"])
                assert key in collector.chains
            collector.ingest(event)
        assert collector_report(collector).incomplete == 0

    def test_send_not_after_aligned_recv(self, traced_run):
        recvs = [
            e for e in traced_run.aligned_events if e.kind == KIND_WIRE_RECV
        ]
        assert recvs
        for event in recvs:
            assert event.detail["send_time"] <= event.time
        assert traced_run.crossings_clamped == 0

    def test_offsets_estimated_for_both_peers(self, traced_run):
        assert set(traced_run.offsets) == {"n0", "n1"}
        # Same-host peers: offsets are microseconds, not seconds.
        assert all(abs(v) < 0.1 for v in traced_run.offsets.values())

    def test_events_from_both_peers_on_one_timeline(self, traced_run):
        times = [e.time for e in traced_run.aligned_events]
        assert times == sorted(times)
        sources = {e.detail.get("dst") for e in traced_run.aligned_events
                   if e.kind == KIND_WIRE_RECV}
        assert sources == {"n0", "n1"}

    def test_trace_events_dicts_match_aligned(self, traced_run):
        assert len(traced_run.trace_events) == len(traced_run.aligned_events)
        assert all("kind" in e and "time" in e for e in traced_run.trace_events)

    def test_chrome_export_has_matched_flow_pairs(self, traced_run):
        trace = to_chrome_trace(traced_run.aligned_events)
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == traced_run.crossings_matched
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # Each peer renders as its own process in the merged view.
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] in "sf"}
        assert len(pids) >= 2
        json.dumps(trace)  # Perfetto-loadable means JSON-serializable

    def test_analyze_reports_per_edge_latency(self, traced_run):
        analysis = analyze_events(traced_run.aligned_events)
        metrics = summary_metrics(analysis)
        for edge in ("n0->n1", "n1->n0"):
            assert metrics[f"edge/{edge}/crossings"] > 0
            assert metrics[f"edge/{edge}/latency_p50_us"] > 0

    def test_sampler_produced_series(self, traced_run):
        samples = [
            e for e in traced_run.aligned_events if e.kind == "obs.sample"
        ]
        assert samples, "live sampler never ticked"


class TestReportAccounting:
    def test_no_truncation_and_streaming_flagged(self, traced_run):
        for payload in traced_run.peer_reports:
            assert payload["trace_dropped"] == 0
            assert payload["streamed"] is True
            assert payload["trace_seen"] >= 1

    def test_cluster_registry_aggregates_all_peers(self, traced_run):
        registry = traced_run.cluster_registry
        assert registry is not None
        text = registry.to_prometheus()
        assert 'peer="n0"' in text and 'peer="n1"' in text
        dispatches = [
            m.value for m in registry
            if m.name == "repro_dispatches_total"
        ]
        assert sum(dispatches) >= traced_run.report.messages


class TestLiveServe:
    def test_metrics_and_status_served_during_run(self):
        port = 19631
        grabbed: dict[str, object] = {}

        def poll():
            deadline = time.time() + _TIMEOUT
            while time.time() < deadline and "metrics" not in grabbed:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics", timeout=1
                    ) as resp:
                        text = resp.read().decode()
                    if 'peer="n0"' in text and 'peer="n1"' in text:
                        grabbed["metrics"] = text
                        with urllib.request.urlopen(
                            f"http://127.0.0.1:{port}/status", timeout=1
                        ) as resp:
                            grabbed["status"] = json.loads(resp.read())
                except OSError:
                    time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        result = run_live_scenario(
            _scenario(count=20), timeout=_TIMEOUT,
            observability={"trace": True}, serve=f"127.0.0.1:{port}",
        )
        poller.join(timeout=5)
        assert result.report.messages == 40
        assert "metrics" in grabbed, "/metrics never answered during the run"
        text = grabbed["metrics"]
        # Parseable: every non-comment line is "name{labels} value".
        for line in str(text).splitlines():
            if line.startswith("#"):
                continue
            assert " " in line
            float(line.rsplit(" ", 1)[1])
        status = grabbed["status"]
        assert status["scenario"] == "dist-obs"
        assert status["phase"] in ("starting", "running", "stopping")
