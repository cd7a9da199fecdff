"""Integration: the distributed observability plane over a real 2-peer run.

One traced UDS live run is shared across the assertions (spawning peer
processes is the expensive part); a traced run of
``examples/scenario_live.json`` checks what the peers ship (and feeds a
threaded replay of the coordinator's serve state), and two more runs
exercise the in-flight HTTP endpoints.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.live import run_live_scenario
from repro.live import cluster as live_cluster
from repro.live.peer import LivePeer
from repro.obs.analyze import analyze_events, summary_metrics
from repro.obs.causal import collector_report
from repro.obs.export import to_chrome_trace
from repro.obs.merge import KIND_WIRE_RECV
from repro.obs.spans import SpanCollector
from repro.util.tracing import event_to_dict

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
        # ``--trace-out`` writes these dicts, one per aligned event.
        dicts = [event_to_dict(e) for e in traced_run.aligned_events]
        assert [d["time"] for d in dicts] == [e.time for e in traced_run.aligned_events]
        assert all("kind" in d for d in dicts)

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


_LIVE_EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "scenario_live.json"


@pytest.fixture(scope="module")
def example_run():
    """A traced run of the example, with every FLUSH / REPORT payload
    the coordinator ingested."""
    scenario = json.loads(_LIVE_EXAMPLE.read_text(encoding="utf-8"))
    payloads = []
    ingest = live_cluster._ObsCollector.ingest

    def recording(self, payload):
        payloads.append(payload)
        ingest(self, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(live_cluster._ObsCollector, "ingest", recording)
        result = run_live_scenario(
            scenario, timeout=_TIMEOUT,
            observability=dict(scenario["observability"], trace=True),
        )
    return result, payloads


class TestOneRecorderPerPeer:
    def test_peer_tracer_has_only_the_spool(self):
        scenario = json.loads(_LIVE_EXAMPLE.read_text(encoding="utf-8"))

        async def build(rank):
            peer = LivePeer({
                "scenario": scenario, "rank": rank, "n_nodes": 2,
                "epoch": time.time(),
                "observability": dict(scenario["observability"], trace=True),
            })
            peer.hub.close()
            return peer

        for rank in (0, 1):
            peer = asyncio.run(build(rank))
            sinks = [type(sink).__name__ for sink in peer.tracer._sinks]
            assert sinks == ["SpoolSink"]
            assert peer.plane.sink is peer.spool

    def test_payloads_carry_no_exemplars_or_ring(self, example_run):
        _, payloads = example_run
        kinds = {payload["type"] for payload in payloads}
        assert kinds == {"flushed", "report"}
        for payload in payloads:
            assert "exemplars" not in payload
            assert "ring_dropped" not in payload

    def test_coordinator_blames_every_message(self, example_run):
        result, _ = example_run
        blame = result.tails["blame"]
        assert blame["messages"] == result.report.messages == 130
        assert blame["incomplete"] == 0
        assert set(blame["edges"]) == {"n0->n1", "n1->n0"}
        assert "peer_exemplars" not in blame
        for payload in result.peer_reports:
            assert payload["trace_seen"] >= 1


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

    def test_why_served_during_traced_run(self):
        """``/why`` attributes what the coordinator has streamed so far,
        read straight from its collector while the run is in flight."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        grabbed: dict[str, object] = {}

        def poll():
            deadline = time.time() + _TIMEOUT
            while time.time() < deadline and "why" not in grabbed:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/why", timeout=1
                    ) as resp:
                        payload = json.loads(resp.read())
                    if payload.get("messages", 0) > 0:
                        grabbed["why"] = payload
                except OSError:
                    time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        result = run_live_scenario(
            _scenario(count=40), timeout=_TIMEOUT,
            observability={"trace": True}, serve=f"127.0.0.1:{port}",
        )
        poller.join(timeout=5)
        assert result.report.messages == 80
        assert "why" in grabbed, "/why never attributed a message mid-run"
        assert not poller.is_alive()
        payload = grabbed["why"]
        assert payload["note"].startswith("mid-run")
        # The one blame summary, plus the note.
        assert set(payload) == {"note"} | set(result.tails["blame"])
        assert 0 < payload["messages"] <= result.tails["blame"]["messages"]


class TestServeStateUnderConcurrentReads:
    def test_readers_never_see_the_collector_mid_write(self, example_run):
        """The poll loop writes the one collector while the HTTP thread
        reads it; every read takes the collector's lock.  Replay a real
        run's FLUSH / REPORT payloads into fresh collectors from one
        thread while three read every route, with a short switch interval
        to force interleaving (a new peer's first events are the moment
        an unlocked read would iterate a dict that grows)."""
        _, payloads = example_run
        streamed = sum(len(p.get("events") or p.get("trace") or ()) for p in payloads)
        current: dict[str, live_cluster._ObsState] = {}
        done = threading.Event()
        errors: list[BaseException] = []

        def read():
            while not done.is_set():
                state = current["state"]
                try:
                    state.why()
                    state.tails()
                    state.metrics_text()
                except BaseException as exc:  # reported below
                    errors.append(exc)
                    return

        def fresh():
            collector = live_cluster._ObsCollector(epoch=0.0, time_scale=1.0)
            current["state"] = live_cluster._ObsState("replay", collector)
            return collector

        fresh()
        readers = [threading.Thread(target=read) for _ in range(3)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for _ in range(100):
                collector = fresh()
                for payload in payloads:
                    collector.ingest(payload)
                assert sum(map(len, collector.events_by_peer.values())) == streamed
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(previous)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert current["state"].why()["messages"] > 0
