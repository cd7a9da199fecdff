"""Unit tests for the SLO layer: objective parsing and burn rates."""

from __future__ import annotations

import pytest

from repro.obs.tails import SLObjective, evaluate_slo_offline, parse_slo
from repro.util.errors import ConfigurationError


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
    def test_glob_filters_edges(self):
        class Stats:
            times = [0.0]
            latencies = [1.0]

        objective = SLObjective("o", "n9->*", threshold_us=50.0)
        edges = {"n0->n1": Stats(), "n9->n1": Stats()}
        (status,) = evaluate_slo_offline(edges, [objective], t_end=0.0)
        assert status.edge == "n9->n1"
        objective = SLObjective("o", "n8->*", threshold_us=50.0)
        assert evaluate_slo_offline(edges, [objective], t_end=0.0) == []

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
