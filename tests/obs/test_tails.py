"""Unit tests for the tail-telemetry layer (recorder, view, SLOs)."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tails import (
    EDGE_METRIC,
    RAIL_METRIC,
    SLObjective,
    TailRecorder,
    TailView,
    evaluate_slo,
    evaluate_slo_offline,
    parse_slo,
)
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent


def _feed(recorder, time, source, kind, **detail):
    recorder(TraceEvent(time=time, source=source, kind=kind, detail=detail))


class TestTailRecorder:
    def test_sim_send_deliver_pair_records_edge_latency(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(rec, 1.0, "nic:n0.mx", "nic.send", packet=7, bytes=64)
        _feed(rec, 1.0001, "rx:n1", "rx.deliver", packet=7, bytes=64)
        sketch = reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert sketch is not None and sketch.count == 1
        assert sketch.quantile(0.5) == pytest.approx(100.0, rel=1e-6)

    def test_unmatched_deliver_is_ignored(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(rec, 1.0, "rx:n1", "rx.deliver", packet=99)
        assert reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"}) is None

    def test_rail_service_span_send_to_idle(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(rec, 2.0, "nic:n0.mx", "nic.send", packet=1)
        _feed(rec, 2.0005, "nic:n0.mx", "nic.send", packet=2)  # same busy span
        _feed(rec, 2.001, "nic:n0.mx", "nic.idle")
        sketch = reg.get(RAIL_METRIC, {"nic": "n0.mx"})
        assert sketch is not None and sketch.count == 1
        assert sketch.quantile(0.5) == pytest.approx(1000.0, rel=1e-6)

    def test_idle_without_send_is_ignored(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(rec, 1.0, "nic:n0.mx", "nic.idle")
        assert reg.get(RAIL_METRIC, {"nic": "n0.mx"}) is None

    def test_live_recv_records_raw_clock_edge(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(
            rec, 5.0002, "live:n1", "live.recv",
            src="n0", dst="n1", sent_at=5.0, corr=3,
        )
        sketch = reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert sketch is not None
        assert sketch.quantile(0.5) == pytest.approx(200.0, rel=1e-6)

    def test_live_recv_clamps_negative_skew(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        _feed(rec, 4.0, "live:n1", "live.recv", src="n0", sent_at=5.0)
        sketch = reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert sketch.quantile(0.5) == 0.0

    def test_message_complete_records_nothing(self):
        """Message latency is exact from the records; the recorder
        neither subscribes to nor sketches completions."""
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        assert "message.complete" not in rec.handlers
        _feed(rec, 3.001, "reasm:n1", "message.complete",
              message=2, submit_time=3.0)
        assert reg.sketches() == []

    def test_pending_cap_evicts_oldest(self):
        from repro.obs import tails

        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        cap = tails._PENDING_CAP
        for i in range(cap + 10):
            _feed(rec, 1.0, "nic:n0.mx", "nic.send", packet=i)
        assert len(rec._pending) == cap
        assert 0 not in rec._pending and cap + 9 in rec._pending


class TestTailView:
    def _populated(self):
        reg = MetricsRegistry()
        rec = TailRecorder(reg)
        for i in range(100):
            _feed(rec, float(i), "nic:n0.mx", "nic.send", packet=i)
            _feed(rec, float(i) + 1e-4 * (1 + i % 3), "rx:n1", "rx.deliver",
                  packet=i)
            _feed(rec, float(i) + 2e-4, "nic:n0.mx", "nic.idle")
        return reg

    def test_edge_and_rail_lookups(self):
        view = TailView(self._populated())
        edge = view.edge("n0", "n1")
        assert edge is not None and edge.count == 100
        assert 100.0 <= edge.p50_us <= 300.0
        assert view.edge("n1", "n0") is None
        rail = view.rail("n0.mx")
        assert rail is not None and rail.count == 100

    def test_family_maps(self):
        view = TailView(self._populated())
        assert set(view.edges()) == {"n0->n1"}
        assert set(view.rails()) == {"n0.mx"}

    def test_lookups_follow_new_samples(self):
        reg = self._populated()
        view = TailView(reg)
        before = view.edge("n0", "n1")
        assert view.edge("n0", "n1") == before  # nothing changed
        reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"}).observe(1e6)
        after = view.edge("n0", "n1")
        assert after != before and after.count == 101 and after.max_us == 1e6

    def test_lookups_follow_a_shift(self):
        """A shift moves values without changing the count; the view
        must not serve the pre-shift summary."""
        reg = self._populated()
        view = TailView(reg)
        before = view.edge("n0", "n1")
        reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"}).shift(5.0)
        assert view.edge("n0", "n1").p99_us == before.p99_us + 5.0

    def test_snapshot_includes_slo_when_configured(self):
        objectives = parse_slo(
            [{"name": "fast", "edge": "*", "threshold_us": 1.0, "target": 0.9}]
        )
        view = TailView(self._populated(), objectives)
        snap = view.snapshot()
        assert set(snap) == {"edges", "rails", "slo"}
        assert snap["slo"][0]["violated"] is True  # everything exceeds 1us


class TestParseSLO:
    def test_defaults_and_names(self):
        objectives = parse_slo([{"threshold_us": 50.0}])
        assert objectives[0].name == "slo0"
        assert objectives[0].edge == "*"
        assert objectives[0].target == 0.999
        assert objectives[0].windows == (1.0, 10.0)
        assert objectives[0].budget == pytest.approx(0.001)

    def test_none_is_empty(self):
        assert parse_slo(None) == ()

    @pytest.mark.parametrize(
        "bad",
        [
            {"threshold_us": 50.0, "bogus": 1},
            {"edge": "*"},  # no threshold
            {"threshold_us": -1.0},
            {"threshold_us": 1.0, "target": 1.0},
            {"threshold_us": 1.0, "target": 0.0},
            {"threshold_us": 1.0, "windows": []},
            {"threshold_us": 1.0, "windows": [-1.0]},
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigurationError):
            parse_slo([bad])

    def test_rejects_non_list(self):
        with pytest.raises(ConfigurationError):
            parse_slo({"threshold_us": 1.0})


class TestEvaluateSLO:
    def _registry(self, latencies_us):
        reg = MetricsRegistry()
        sketch = reg.sketch(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        for v in latencies_us:
            sketch.observe(v)
        return reg

    def test_online_burn_rate(self):
        # 10% of samples above threshold against a 10% budget: burn == 1.
        reg = self._registry([1.0] * 90 + [100.0] * 10)
        objective = SLObjective("o", "*", threshold_us=50.0, target=0.9)
        statuses = evaluate_slo(reg, [objective])
        assert len(statuses) == 1
        assert statuses[0].burn["cumulative"] == pytest.approx(1.0)
        assert statuses[0].violated

    def test_glob_filters_edges(self):
        reg = self._registry([1.0])
        objective = SLObjective("o", "n9->*", threshold_us=50.0)
        assert evaluate_slo(reg, [objective]) == []

    def test_offline_multi_window_requires_all_windows(self):
        class Stats:
            def __init__(self, times, latencies):
                self.times = times
                self.latencies = latencies

        # Old violations outside the 1s window, clean since: the short
        # window does not burn, so no violation despite the long one.
        times = [0.1 * i for i in range(100)]
        latencies = [1.0 if t < 5.0 else 1e-6 for t in times]
        edges = {"n0->n1": Stats(times, latencies)}
        objective = SLObjective(
            "o", "*", threshold_us=10.0, target=0.5, windows=(1.0, 10.0)
        )
        (status,) = evaluate_slo_offline(edges, [objective], t_end=times[-1])
        assert status.burn["1s"] == 0.0
        assert status.burn["10s"] > 0.0
        assert not status.violated
        # Violations throughout: every window burns, verdict flips.
        edges = {"n0->n1": Stats(times, [1.0] * 100)}
        (status,) = evaluate_slo_offline(edges, [objective], t_end=times[-1])
        assert status.violated
        assert status.worst_burn >= 1.0

    def test_offline_empty_window_burns_zero(self):
        class Stats:
            times = [0.0]
            latencies = [1.0]

        objective = SLObjective("o", "*", threshold_us=0.5, windows=(0.001,))
        (status,) = evaluate_slo_offline(
            {"n0->n1": Stats()}, [objective], t_end=100.0
        )
        assert status.burn == {"0.001s": 0.0}
        assert not status.violated
