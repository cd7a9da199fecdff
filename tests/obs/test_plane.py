"""Observability plane lifecycle, scenario wiring, and the off fast path."""

import json

import numpy as np
import pytest

from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.obs.recorder import RingBufferSink
from repro.runtime.cluster import Cluster
from repro.runtime.scenario import run_scenario
from repro.util.errors import ConfigurationError


def _scenario(**extra):
    scenario = {
        "name": "obs-test",
        "cluster": {"n_nodes": 2, "strategy": "search"},
        "workloads": [
            {"app": "stream", "src": "n0", "dst": "n1", "size": 512, "count": 20}
        ],
    }
    scenario.update(extra)
    return scenario


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="sample_intervall"):
            ObservabilityConfig.from_spec({"sample_intervall": 1e-5})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(sample_interval=0)
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(ring_buffer=0)

    def test_scenario_level_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="observabillity"):
            run_scenario(_scenario(observabillity={}))

    def test_unknown_key_inside_block_rejected(self):
        with pytest.raises(ConfigurationError, match="ringbuffer"):
            run_scenario(_scenario(observability={"ringbuffer": 10}))


class TestLifecycle:
    def test_double_install_rejected(self):
        plane = ObservabilityPlane()
        plane.install(Cluster(seed=0))
        with pytest.raises(ConfigurationError):
            plane.install(Cluster(seed=0))

    def test_trace_false_means_no_sink(self):
        plane = ObservabilityPlane(ObservabilityConfig(trace=False))
        cluster = Cluster(seed=0)
        plane.install(cluster)
        assert not cluster.sim.tracer.enabled
        assert plane.events == []
        with pytest.raises(ConfigurationError):
            plane.write_trace("/tmp/never.json")

    def test_scenario_block_attaches_plane(self):
        report, cluster, _ = run_scenario(
            _scenario(observability={"sample_interval": 1e-5})
        )
        plane = cluster.obs
        assert plane is not None
        assert plane.sampler is not None
        assert any(e.kind == "optimizer.decide" for e in plane.events)
        assert sum(e.kind == "obs.sample" for e in plane.events) > 1

    def test_flight_recorder_bounds_capture(self):
        _, cluster, _ = run_scenario(_scenario(observability={"ring_buffer": 16}))
        plane = cluster.obs
        assert len(plane.events) == 16
        assert isinstance(plane.sink, RingBufferSink)
        assert plane.sink.dropped == plane.sink.seen - 16 > 0

    def test_finalize_mirrors_engine_and_nic_stats(self):
        _, cluster, _ = run_scenario(_scenario(observability={}))
        plane = cluster.obs
        plane.finalize()
        engine = cluster.engine("n0")
        dispatched = plane.registry.get("repro_dispatches_total", {"node": "n0"})
        assert dispatched.value == engine.stats.dispatches > 0
        nic = engine.drivers[0].nic
        wire = plane.registry.get("repro_nic_wire_bytes_total", {"nic": nic.name})
        assert wire.value == nic.stats.wire_bytes > 0
        captured = plane.registry.get("repro_trace_events_total")
        assert captured.value == len(plane.events)

    def test_finalize_exports_the_planes_own_event_counts(self):
        """Overhead is a metric: every dispatched event is counted by
        kind, and the counts add up to what the trace sink saw."""
        _, cluster, _ = run_scenario(_scenario(observability={"ring_buffer": 16}))
        plane = cluster.obs
        plane.finalize()
        per_kind = {
            dict(metric.labels)["kind"]: metric.value
            for metric in plane.registry
            if metric.name == "repro_obs_events_total"
        }
        assert per_kind["optimizer.decide"] > 0
        assert per_kind == cluster.sim.tracer.counts
        assert sum(per_kind.values()) == plane.sink.seen > 16

    def test_exports_write_files(self, tmp_path):
        _, cluster, _ = run_scenario(
            _scenario(observability={"sample_interval": 1e-5})
        )
        plane = cluster.obs
        plane.finalize()
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        assert plane.write_trace(trace_path) == "chrome"
        plane.write_metrics(metrics_path)
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        text = metrics_path.read_text()
        assert "# TYPE repro_dispatches_total counter" in text


class TestNullTracerFastPath:
    def test_no_plane_means_no_events_and_no_emit_calls(self):
        """Without sinks every guard site must skip ``emit`` entirely —
        not call it and discard: the fast path never builds the detail
        dict at all."""
        cluster = Cluster(seed=0)
        tracer = cluster.sim.tracer
        assert not tracer.enabled

        def forbidden_emit(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("emit() called on the NullTracer fast path")

        tracer.emit = forbidden_emit
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        messages = [api.send(flow, 512) for _ in range(10)]
        cluster.run_until_idle()
        assert all(m.completion.done for m in messages)

    def test_results_identical_with_and_without_plane(self):
        def run(observability):
            report, cluster, _ = run_scenario(
                _scenario(observability=observability) if observability is not None
                else _scenario()
            )
            # sim.now is excluded: the sampler's own final tick
            # legitimately lands after the last delivery.
            return (
                report.messages,
                report.total_bytes,
                report.network_transactions,
                report.latency.mean,
                report.latency.p99,
            )

        assert run(None) == run({"sample_interval": 1e-5})


class TestReportRow:
    def test_fault_counter_columns_present(self):
        report, _, _ = run_scenario(_scenario())
        row = report.row()
        for column in ("retransmits", "failovers", "dropped"):
            assert row[column] == 0

    def test_tail_columns_present(self):
        """p99 and p999 are exact over the records, untraced too."""
        report, cluster, _ = run_scenario(_scenario())
        row = report.row()
        latencies = [r.latency for r in cluster.metrics.records]
        p99, p999 = np.percentile(latencies, [99, 99.9])
        assert row["p99_lat_us"] == p99 * 1e6
        assert row["p999_lat_us"] == p999 * 1e6
        assert report.to_dict()["latency"]["p999"] == p999 >= p99 > 0


class TestTailTelemetry:
    def test_traced_run_populates_tail_sketches(self):
        report, cluster, _ = run_scenario(_scenario(observability={}))
        view = cluster.obs.tail_view
        edges = view.edges()
        assert "n0->n1" in edges and edges["n0->n1"].count > 0
        assert edges["n0->n1"].p99_us >= edges["n0->n1"].p50_us > 0
        assert view.rails()  # per-NIC service-time spans
        # The edge and rail families are the only sketches the recorder
        # keeps; message latency comes from the records alone.
        assert {s.name for s in cluster.obs.registry.sketches()} == {
            "repro_edge_latency_us", "repro_nic_service_us"
        }
        untraced, _, _ = run_scenario(_scenario())
        assert report.to_dict() == untraced.to_dict()

    def test_engines_carry_view(self):
        _, cluster, _ = run_scenario(_scenario(observability={}))
        plane = cluster.obs
        for engine in cluster.engines.values():
            assert engine.tail_view is plane.tail_view

    def test_trace_off_means_no_tail_recording(self):
        _, cluster, _ = run_scenario(_scenario(observability={"trace": False}))
        plane = cluster.obs
        assert plane.tail_recorder is None
        assert plane.tail_view.edges() == {}
        assert plane.registry.sketches() == []

    def test_dispatch_identical_traced_vs_untraced(self):
        def run(observability):
            report, _, _ = run_scenario(
                _scenario(observability=observability)
                if observability is not None else _scenario()
            )
            return (
                report.messages,
                report.total_bytes,
                report.network_transactions,
                report.latency.mean,
                report.latency.p99,
            )

        assert run(None) == run({})  # trace + tail recorder on

    def test_sampler_emits_tail_p99(self):
        _, cluster, _ = run_scenario(
            _scenario(observability={"sample_interval": 1e-5})
        )
        samples = [
            e for e in cluster.obs.events
            if e.kind == "obs.sample" and "tail_p99_us" in e.detail
        ]
        assert samples
        assert all(
            edge == "n0->n1" and p99 > 0
            for e in samples
            for edge, p99 in e.detail["tail_p99_us"].items()
        )
