"""Trace-analysis CLI: timeline reconstruction and miss accounting."""

import pytest

from repro.obs.analyze import (
    _sparkline,
    analyze_events,
    analyze_file,
    render,
    summary_metrics,
)
from repro.runtime.scenario import run_scenario
from repro.util.stats import percentiles
from repro.util.tracing import TraceEvent


def _decide(t, items, widest, channel=0, truncation="exhausted"):
    return TraceEvent(
        t,
        "engine:n0",
        "optimizer.decide",
        {
            "items": items,
            "widest_items": widest,
            "channel": channel,
            "truncation": truncation,
        },
    )


def _sample(t, depth):
    return TraceEvent(
        t,
        "obs:sampler",
        "obs.sample",
        {
            "queues": {"n0/0": [depth, depth * 256]},
            "nic_busy": {"n0.mx00": 0.25},
            "backlog": depth,
            "retransmits_in_flight": 1,
        },
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
    return TraceEvent(
        t,
        f"live:{dst}",
        "live.recv",
        {"src": src, "dst": dst, "sent_at": sent_at, "corr": 1},
    )


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
