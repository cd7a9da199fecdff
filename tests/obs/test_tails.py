"""Unit tests for the SLO layer: objective parsing and burn rates."""

from __future__ import annotations

import pytest

from repro.obs.analyze import TraceAnalysis, _Spans, tails_payload
from repro.obs.plane import ObservabilityConfig, SLObjective
from repro.util.errors import ConfigurationError


def _verdicts(edges, objective, t_end):
    """The ``slo`` verdicts of one objective over ``{edge: (times,
    latencies)}``, as the tails view reports them."""
    analysis = TraceAnalysis(
        span=(0.0, t_end),
        edges={name: _Spans(latencies, times) for name, (times, latencies) in edges.items()},
    )
    return tails_payload(analysis, [objective])["slo"]


def _read_slo(block):
    """The objectives of an ``observability.slo`` block, as the scenario
    reader reads them."""
    return ObservabilityConfig.from_spec({"slo": block}).slo


class TestParseSLO:
    def test_defaults_and_names(self):
        objectives = _read_slo([{"threshold_us": 50.0}])
        assert objectives[0].name == "slo0"
        assert objectives[0].edge == "*"
        assert objectives[0].target == 0.999
        assert objectives[0].windows == (1.0, 10.0)
        assert objectives[0].budget == pytest.approx(0.001)

    def test_none_is_empty(self):
        assert _read_slo(None) == ()

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
            {"threshold_us": 1.0, "windows": [True]},
            {"threshold_us": 1.0, "windows": ["1"]},
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigurationError):
            _read_slo([bad])

    def test_rejects_non_list(self):
        with pytest.raises(ConfigurationError):
            _read_slo({"threshold_us": 1.0})


class TestEvaluateSLO:
    def test_glob_filters_edges(self):
        edges = {"n0->n1": ([0.0], [1.0]), "n9->n1": ([0.0], [1.0])}
        (verdict,) = _verdicts(edges, SLObjective("o", 50.0, edge="n9->*"), 0.0)
        assert verdict["edge"] == "n9->n1"
        assert _verdicts(edges, SLObjective("o", 50.0, edge="n8->*"), 0.0) == []

    def test_offline_multi_window_requires_all_windows(self):
        # Old violations outside the 1s window, clean since: the short
        # window does not burn, so no violation despite the long one.
        times = [0.1 * i for i in range(100)]
        latencies = [1.0 if t < 5.0 else 1e-6 for t in times]
        objective = SLObjective("o", 10.0, target=0.5, windows=(1.0, 10.0))
        (verdict,) = _verdicts({"n0->n1": (times, latencies)}, objective, times[-1])
        assert verdict["burn"]["1s"] == 0.0
        assert verdict["burn"]["10s"] > 0.0
        assert not verdict["violated"]
        # Violations throughout: every window burns, verdict flips.
        (verdict,) = _verdicts({"n0->n1": (times, [1.0] * 100)}, objective, times[-1])
        assert verdict["violated"]

    def test_offline_empty_window_burns_zero(self):
        objective = SLObjective("o", 0.5, windows=(0.001,))
        (verdict,) = _verdicts({"n0->n1": ([0.0], [1.0])}, objective, 100.0)
        assert verdict["burn"] == {"0.001s": 0.0}
        assert not verdict["violated"]
