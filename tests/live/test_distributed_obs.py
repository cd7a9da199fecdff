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
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.live import run_live_scenario
from repro.live import cluster as live_cluster
from repro.live.peer import LivePeer
from repro.obs.analyze import analyze_events, analyze_file, summary_metrics
from repro.obs.export import to_chrome_trace, write_trace
from repro.util.tracing import detail_of, event_to_dict

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
        dict(_scenario(), observability={"trace": True, "sample_interval": 0.005}),
        timeout=_TIMEOUT,
    )


def _recvs(result):
    """The merged trace's wire crossings (one ``live.recv`` each)."""
    return [e for e in result.aligned_events if e[2] == "live.recv"]


class TestMergedTrace:
    def test_crossing_per_delivered_message(self, traced_run):
        # Ping-pong never aggregates across messages, so every delivered
        # message is exactly one correlated wire crossing.
        assert len(_recvs(traced_run)) >= traced_run.report.messages
        # ... and every completion names its sender's chain: the receiving
        # peer's message.complete carries the sender's (src, message).
        analysis = analyze_events(traced_run.aligned_events)
        closed = {(chain.src, chain.message_id): chain for chain in analysis.completed}
        for event in traced_run.aligned_events:
            if event[2] == "message.complete":
                key = (detail_of(event)["src"], detail_of(event)["message"])
                assert key in closed
                assert closed[key].complete_t == event[0]
        assert analysis.report.incomplete == 0

    def test_send_not_after_aligned_recv(self, traced_run):
        """One host, one clock: every raw crossing ends after the
        sender's own ``sent_at``, so the analysis clamps none."""
        recvs = _recvs(traced_run)
        assert recvs
        for event in recvs:
            assert detail_of(event)["sent_at"] <= event[0]
        edges = analyze_events(traced_run.aligned_events).edges
        assert set(edges) == {"n0->n1", "n1->n0"}
        assert all(edge.clamped == 0 for edge in edges.values())

    def test_events_from_both_peers_on_one_timeline(self, traced_run):
        times = [e[0] for e in traced_run.aligned_events]
        assert times == sorted(times)
        sources = {detail_of(e).get("dst") for e in traced_run.aligned_events
                   if e[2] == "live.recv"}
        assert sources == {"n0", "n1"}

    def test_trace_events_dicts_match_aligned(self, traced_run):
        # ``--trace-out`` writes these dicts, one per merged event.
        dicts = [event_to_dict(e) for e in traced_run.aligned_events]
        assert [d["time"] for d in dicts] == [e[0] for e in traced_run.aligned_events]
        assert all("kind" in d for d in dicts)

    def test_chrome_export_has_matched_flow_pairs(self, traced_run):
        trace = to_chrome_trace(traced_run.aligned_events)
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(_recvs(traced_run))
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
            e for e in traced_run.aligned_events if e[2] == "obs.sample"
        ]
        assert samples, "live sampler never ticked"


class TestReportAccounting:
    def test_no_truncation_and_streaming_flagged(self, traced_run):
        for payload in traced_run.peer_reports:
            assert payload["trace_dropped"] == 0
            assert payload["trace_seen"] >= 1
        assert not any(e[2] == "obs.truncated" for e in traced_run.aligned_events)
        # One metric name for the spool's drops, the plane's.
        dropped = {
            dict(m.labels)["peer"]: m.value
            for m in traced_run.cluster_registry
            if m.name == "repro_trace_events_dropped_total"
        }
        assert dropped == {"n0": 0, "n1": 0}
        names = {m.name for m in traced_run.cluster_registry}
        assert "repro_trace_spool_dropped_total" not in names

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
        result = run_live_scenario(scenario, timeout=_TIMEOUT, trace=True)
    return result, payloads


class TestOneRecorderPerPeer:
    def test_peer_tracer_has_only_the_spool(self):
        scenario = json.loads(_LIVE_EXAMPLE.read_text(encoding="utf-8"))
        scenario["observability"] = dict(scenario["observability"], trace=True)

        async def build(rank):
            peer = LivePeer({
                "scenario": scenario, "rank": rank, "n_nodes": 2,
                "epoch": time.time(),
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

    def test_merged_trace_is_the_streamed_events(self, example_run, tmp_path):
        """The merge holds exactly what the peers streamed, each event at
        the time its peer recorded, and ``tails["edges"]`` is the edge
        table of the written trace file."""
        result, payloads = example_run
        streamed = sorted(
            json.dumps(e, sort_keys=True)
            for p in payloads for e in p.get("events") or p.get("trace") or ()
        )
        merged = sorted(
            json.dumps(event_to_dict(e), sort_keys=True) for e in result.aligned_events
        )
        assert merged == streamed
        path = tmp_path / "live_merged.jsonl"
        write_trace(path, result.aligned_events)
        edges = analyze_file(path).edges
        assert result.tails["edges"] == {
            name: edge.stats() for name, edge in sorted(edges.items())
        }


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
            trace=True, serve=f"127.0.0.1:{port}",
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

    def test_blame_served_during_traced_run(self):
        """``/tails["blame"]`` attributes what the coordinator has
        streamed so far, read straight from its collector while the run
        is in flight; ``/why`` is no route."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        grabbed: dict[str, object] = {}

        def poll():
            deadline = time.time() + _TIMEOUT
            while time.time() < deadline and "blame" not in grabbed:
                try:
                    if "why" not in grabbed:
                        urllib.request.urlopen(f"http://127.0.0.1:{port}/why", timeout=1)
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/tails", timeout=1
                    ) as resp:
                        blame = json.loads(resp.read())["blame"]
                    if blame["messages"] > 0:
                        grabbed["blame"] = blame
                except urllib.error.HTTPError as missing:
                    grabbed["why"] = (missing.code, missing.read())
                except OSError:
                    time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        result = run_live_scenario(
            _scenario(count=40), timeout=_TIMEOUT,
            trace=True, serve=f"127.0.0.1:{port}",
        )
        poller.join(timeout=5)
        assert result.report.messages == 80
        assert "blame" in grabbed, "/tails never attributed a message mid-run"
        assert not poller.is_alive()
        blame = grabbed["blame"]
        assert set(blame) == set(result.tails["blame"])
        assert 0 < blame["messages"] <= result.tails["blame"]["messages"]
        assert grabbed.get("why") == (404, b"not found; try /metrics, /status, /peers, /tails\n")


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
                    state.tails()
                    state.metrics_text()
                except BaseException as exc:  # reported below
                    errors.append(exc)
                    return

        def fresh():
            collector = live_cluster._ObsCollector()
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
        assert current["state"].tails()["blame"]["messages"] > 0
