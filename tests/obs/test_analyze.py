"""Trace-analysis CLI: timeline reconstruction and miss accounting."""

import math
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest

from repro.obs.analyze import (
    _sparkline,
    analyze_events,
    analyze_file,
    render,
    summary_metrics,
)
from repro.runtime.scenario import load_scenario_file, run_scenario
from repro.util.stats import percentiles
from repro.util.tracing import event_from_dict


def _event(t, source, kind, **detail):
    """An event from the named fields it needs; the rest are absent."""
    return event_from_dict({"time": t, "source": source, "kind": kind, "detail": detail})


def _decide(t, items, widest, channel=0, truncation="exhausted"):
    return _event(
        t, "engine:n0", "optimizer.decide",
        items=items, widest_items=widest, channel=channel, truncation=truncation,
    )


def _sample(t, depth):
    return _event(
        t, "obs:sampler", "obs.sample",
        queues={"n0/0": [depth, depth * 256]},
        nic_busy={"n0.mx00": 0.25},
        backlog=depth,
        retransmits_in_flight=1,
        holds_armed=0,
    )


class TestAnalysis:
    def test_miss_accounting(self):
        events = [
            _decide(0.0, 2, 2),
            _decide(1e-6, 1, 3),  # wider candidate lost
            _decide(2e-6, 4, 4, truncation="budget"),
        ]
        analysis = analyze_events(events)
        assert analysis.decides == 3
        assert analysis.misses == 1
        assert analysis.miss_fraction == 1 / 3
        assert analysis.miss_by_channel == {"n0/0": 1}
        assert analysis.truncation == {"exhausted": 2, "budget": 1}

    def test_timeline_reconstruction(self):
        events = [_sample(i * 1e-5, depth) for i, depth in enumerate((0, 5, 2))]
        analysis = analyze_events(events)
        assert analysis.backlog.values == [0, 5, 2]
        assert analysis.node_depth["n0"].values == [0, 5, 2]
        assert analysis.nic_busy["n0.mx00"].values == [0.25] * 3
        assert analysis.backlog.peak == (1e-5, 5)
        assert analysis.retransmits.values == [1, 1, 1]

    def test_render_sections(self):
        events = [_sample(0.0, 3), _decide(1e-6, 1, 2)]
        text = render(analyze_events(events))
        assert "queue depth" in text
        assert "NIC utilization" in text
        assert "aggregation opportunities" in text
        assert "wider plan existed but lost    : 1" in text

    def test_render_degrades_without_samples(self):
        text = render(analyze_events([_decide(0.0, 1, 1)]))
        assert "no obs.sample records" in text

    def test_empty_trace(self):
        analysis = analyze_events([])
        assert analysis.n_events == 0
        assert "no decide records" in render(analysis)


def _recv(t, src, dst, sent_at):
    return _event(t, f"live:{dst}", "live.recv", src=src, dst=dst, sent_at=sent_at, corr=1)


class TestEdgePercentiles:
    def test_linear_interpolation(self):
        # 4 crossings with latencies 1..4 ms: numpy's default definition
        # puts p50 at rank q*(n-1)=1.5, i.e. halfway between 2 and 3 ms.
        events = [
            _recv(10.0 + 0.001 * lat, "n0", "n1", 10.0) for lat in (4, 2, 1, 3)
        ]
        edge = analyze_events(events).edges["n0->n1"]
        tails = edge.tails()
        assert list(tails) == ["p50", "p90", "p99", "p999", "max"]
        assert tails["p50"] == pytest.approx(2.5e-3)
        assert tails["max"] == pytest.approx(4e-3)
        # The columns are the shared exact definition, value for value.
        assert list(tails.values()) == percentiles(
            edge.latencies, [50, 90, 99, 99.9, 100]
        )
        assert percentiles(edge.latencies, [0, 25]) == pytest.approx([1e-3, 1.75e-3])

    def test_times_parallel_to_latencies(self):
        # evaluate_slo_offline windows over (times, latencies) pairs.
        events = [_recv(t, "n0", "n1", t - 1e-4) for t in (1.0, 2.0, 3.0)]
        edge = analyze_events(events).edges["n0->n1"]
        assert edge.times == [1.0, 2.0, 3.0]
        assert len(edge.times) == len(edge.latencies) == 3

    def test_negative_latency_clamped_and_counted(self):
        edge = analyze_events([_recv(1.0, "n0", "n1", 2.0)]).edges["n0->n1"]
        assert edge.latencies == [0.0]
        assert edge.clamped == 1

    def test_render_includes_tail_percentiles(self):
        events = [_recv(1.0 + 1e-4 * i, "n0", "n1", 1.0) for i in range(1, 50)]
        text = render(analyze_events(events))
        assert "cross-peer wire crossings" in text
        for token in ("p50", "p90", "p99", "p999", "max"):
            assert token in text

    def test_summary_metrics_tail_keys(self):
        events = [_recv(1.0 + 1e-4 * i, "n0", "n1", 1.0) for i in range(1, 50)]
        out = summary_metrics(analyze_events(events))
        prefix = "edge/n0->n1"
        assert out[f"{prefix}/crossings"] == 49.0
        assert (
            out[f"{prefix}/latency_p50_us"]
            <= out[f"{prefix}/latency_p99_us"]
            <= out[f"{prefix}/latency_p999_us"]
            <= out[f"{prefix}/latency_max_us"]
        )
        # Values are in microseconds (latencies were 100us..4.9ms).
        assert out[f"{prefix}/latency_p50_us"] == pytest.approx(2500.0)
        assert out[f"{prefix}/latency_max_us"] == pytest.approx(4900.0)


def _send(t, nic, packet, **detail):
    return _event(t, f"nic:{nic}", "nic.send", packet=packet, occupancy=1e-6, **detail)


def _deliver(t, node, src, packet, corr=None):
    return _event(t, f"rx:{node}", "rx.deliver", packet=packet, src=src, corr=corr)


class TestSimCrossings:
    """On a simulated trace an ``rx.deliver`` closes the ``nic.send`` of
    the same ``{sender}#{packet}``: the latest send, the first delivery."""

    def test_send_deliver_pair_is_one_crossing(self):
        events = [_send(1.0, "n0.mx00", 7), _deliver(1.0001, "n1", "n0", 7)]
        edge = analyze_events(events).edges["n0->n1"]
        assert edge.count == 1
        assert edge.latencies == [pytest.approx(1e-4)]
        assert edge.times == [1.0001]

    def test_unmatched_deliver_is_ignored(self):
        events = [_send(1.0, "n0.mx00", 7), _deliver(1.1, "n1", "n2", 7)]
        assert analyze_events(events).edges == {}

    def test_latest_send_first_delivery(self):
        events = [
            _send(1.0, "n0.mx00", 3),
            _send(2.0, "n0.mx01", 3),  # a resend replaces the open crossing
            _deliver(2.5, "n1", "n0", 3),
            _deliver(2.7, "n1", "n0", 3),  # a duplicate closes nothing
        ]
        assert analyze_events(events).edges["n0->n1"].latencies == [0.5]

    def test_live_records_are_not_sim_crossings(self):
        """A live send and delivery carry ``corr``: their crossing is the
        ``live.recv``, counted once."""
        events = [
            _send(1.0, "n0.mx00", 0, corr="n0#0"),
            _recv(1.2, "n0", "n1", 1.0),
            _deliver(1.3, "n1", "n0", 0, corr="n0#0"),
        ]
        assert analyze_events(events).edges["n0->n1"].latencies == [
            pytest.approx(0.2)
        ]


def _nic(t, nic, kind):
    return (t, f"nic:{nic}", kind)


class TestRailSpans:
    """A ``nic.send`` opens its NIC's service span, the next ``nic.idle``
    closes it and a ``nic.fail`` drops it."""

    def test_send_to_idle_is_one_span(self):
        events = [_send(2.0, "n0.mx00", 1), _nic(2.001, "n0.mx00", "nic.idle")]
        rail = analyze_events(events).rails["n0.mx00"]
        assert rail.latencies == [2.001 - 2.0]
        assert rail.times == [2.001]
        assert rail.stats().count == 1

    def test_idle_without_send_is_ignored(self):
        assert analyze_events([_nic(1.0, "n0.mx00", "nic.idle")]).rails == {}

    def test_an_outage_is_not_service_time(self):
        events = [
            _send(1.0, "n0.mx00", 1),
            _nic(1.5, "n0.mx00", "nic.fail"),  # no idle while the rail is down
            _nic(9.0, "n0.mx00", "nic.recover"),
            _nic(9.5, "n0.mx00", "nic.idle"),  # closes nothing
            _send(10.0, "n0.mx00", 2),
            _nic(10.25, "n0.mx00", "nic.idle"),
        ]
        assert analyze_events(events).rails["n0.mx00"].latencies == [0.25]

    def test_render_lists_the_rails(self):
        events = [_send(2.0, "n0.mx00", 1), _nic(2.001, "n0.mx00", "nic.idle")]
        text = render(analyze_events(events))
        assert "NIC service time (send to idle):" in text
        assert "n0.mx00  n=1" in text


#: What the deleted ``repro_edge_latency_us`` KLL sketch (``k = 128``)
#: reported on the traced ``examples/scenario_mixed.json``: edge ->
#: (count, p50 us, p99 us, rank_error_bound()).  Regenerated by feeding
#: each edge's latencies, in trace order, to that sketch's last version
#: (``343d699^:src/repro/obs/sketch.py``), which reproduces the table
#: pinned before the streams left numpy.
_PARENT_EDGE_SKETCHES = {
    "n0->n1": (191, 4.153333333332954, 137.17732793522285, 0.015625),
    "n0->n2": (6, 2.4706666666668258, 3.3106666666666618, 0.0078125),
    "n0->n3": (27, 9.777142857142659, 85.13273954116062, 0.0078125),
    "n1->n0": (138, 4.153333333332954, 37.910323886639674, 0.015625),
    "n1->n2": (38, 11.242604588394064, 38.141295546558695, 0.0078125),
    "n1->n3": (8, 3.050000000000101, 3.3106666666666076, 0.0078125),
    "n2->n0": (10, 2.2600000000000224, 3.050000000000101, 0.0078125),
    "n2->n1": (30, 11.186021592442648, 37.910323886639674, 0.0078125),
    "n2->n3": (53, 4.153333333333333, 38.86234817813765, 0.0078125),
    "n3->n0": (45, 13.558097165991718, 79.39858299595149, 0.0078125),
    "n3->n1": (10, 2.2600000000000224, 3.050000000000101, 0.0078125),
    "n3->n2": (48, 21.359716599190236, 50.33999999999985, 0.0078125),
}

_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestScenarioMixedEdges:
    """The exact table reports what the online edge sketch counted, and
    the sketch's quantiles sit within its rank-error envelope of it."""

    @pytest.fixture(scope="class")
    def analysis(self):
        scenario = load_scenario_file(_EXAMPLES / "scenario_mixed.json")
        scenario["observability"] = {"trace": True}
        _, cluster, _ = run_scenario(scenario)
        return analyze_events(cluster.obs.events)

    def test_crossings_per_edge_equal_the_sketch_counts(self, analysis):
        assert analysis.crossings == 604
        assert {name: edge.count for name, edge in analysis.edges.items()} == {
            name: count for name, (count, *_rest) in _PARENT_EDGE_SKETCHES.items()
        }

    def test_sketch_quantiles_within_rank_error_of_exact(self, analysis):
        for name, (count, p50, p99, bound) in _PARENT_EDGE_SKETCHES.items():
            ordered = sorted(v * 1e6 for v in analysis.edges[name].latencies)
            for q, value in ((0.5, p50), (0.99, p99)):
                below = bisect_left(ordered, value) / count
                at_or_below = bisect_right(ordered, value) / count
                assert below - bound <= q <= at_or_below + bound, (name, q)


class TestFormatsAgree:
    """The Chrome export keeps every event as an instant, so it analyzes
    like the JSONL of the same run (times pass through microseconds)."""

    def test_summary_metrics_equal_across_formats(self, tmp_path):
        scenario = load_scenario_file(_EXAMPLES / "scenario_mixed.json")
        scenario["observability"] = {"trace": True}
        _, cluster, _ = run_scenario(scenario)
        metrics = {}
        for suffix in ("jsonl", "json"):
            path = tmp_path / f"trace.{suffix}"
            cluster.obs.write_trace(path)
            metrics[suffix] = summary_metrics(analyze_file(path))
        jsonl, chrome = metrics["jsonl"], metrics["json"]
        assert jsonl["crossings/total"] == 604
        assert chrome.keys() == jsonl.keys()
        for key, value in jsonl.items():
            # abs_tol: a zero residual (unattributed) is float noise ~1e-17.
            assert math.isclose(chrome[key], value, rel_tol=1e-9, abs_tol=1e-12), key


class TestSparkline:
    def test_scales_to_width(self):
        assert len(_sparkline(list(range(1000)), width=40)) == 40
        assert len(_sparkline([1.0, 2.0], width=40)) == 2

    def test_flat_zero_renders_floor(self):
        assert _sparkline([0.0, 0.0]) == "▁▁"

    def test_empty(self):
        assert _sparkline([]) == ""


class TestEndToEnd:
    def test_analyze_file_from_scenario(self, tmp_path):
        scenario = {
            "name": "analyze-e2e",
            "cluster": {"n_nodes": 2, "strategy": "search"},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 512, "count": 30}
            ],
            "observability": {"sample_interval": 1e-5},
        }
        _, cluster, _ = run_scenario(scenario)
        for suffix in ("json", "jsonl"):
            path = tmp_path / f"t.{suffix}"
            cluster.obs.write_trace(path)
            analysis = analyze_file(path)
            assert analysis.decides > 0
            assert analysis.backlog.values
            text = render(analysis)
            assert "dispatches with decide records" in text


class TestSloCheck:
    """``obs analyze TRACE --scenario S --check``: the offline SLO gate."""

    def _run(self, tmp_path, events, capsys):
        import json

        from repro.__main__ import main as cli
        from repro.obs.export import write_trace

        trace = tmp_path / "merged.jsonl"
        write_trace(trace, events)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"observability": {"slo": [
            {"name": "wire-fast", "edge": "*", "threshold_us": 5000,
             "target": 0.99, "windows": [0.5, 2.0]},
        ]}}))
        code = cli(["obs", "analyze", str(trace), "--scenario", str(scenario),
                    "--check"])
        return code, capsys.readouterr().out

    def test_met_objectives_exit_zero(self, tmp_path, capsys):
        events = [_recv(1.0 + 1e-3 * i, "n0", "n1", 1.0 + 1e-3 * i - 1e-4)
                  for i in range(50)]
        code, out = self._run(tmp_path, events, capsys)
        assert code == 0
        assert "[   ok   ] wire-fast: n0->n1" in out

    def test_violation_exits_one(self, tmp_path, capsys):
        events = [_recv(1.0 + 1e-3 * i, "n0", "n1", 1.0 + 1e-3 * i - 1e-2)
                  for i in range(50)]
        code, out = self._run(tmp_path, events, capsys)
        assert code == 1
        assert "VIOLATED" in out and "FAIL: 1 SLO violation(s)" in out

    def test_no_correlated_edge_exits_one(self, tmp_path, capsys):
        code, out = self._run(tmp_path, [_decide(0.0, 1, 1)], capsys)
        assert code == 1
        assert "SLO: no objectives matched any edge" in out
        assert "FAIL: --check requires at least one correlated edge" in out
