"""Tests for the strict ``"tuner"`` scenario block."""

import pytest

from repro.network.nic import SERVICE_WINDOW
from repro.runtime.scenario import build_scenario
from repro.tuner import RailsConfig, TunerConfig
from repro.util.errors import ConfigurationError


class TestTunerConfig:
    def test_defaults(self):
        assert TunerConfig() == TunerConfig.from_spec({})
        assert TunerConfig().rails == RailsConfig()

    def test_from_spec_full_block(self):
        config = TunerConfig.from_spec({"rails": {"p99_budget_us": 250.0}})
        assert config.rails.p99_budget_us == 250.0
        # untouched sub-keys keep their defaults
        assert config.rails.min_samples == 32

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"sweeps": {}}, "sweeps"),  # typo at the top level
            # keys of the removed regime tracker are unknown, not ignored
            ({"min_dwell": 4}, "min_dwell"),
            ({"drift_window": 2}, "drift_window"),
            ({"deep_backlog": 16}, "deep_backlog"),
            ({"tail_drift_factor": 4.0}, "tail_drift_factor"),
            # so are the removed online sweep and the on/off switch
            ({"sweep": {"windows": [8], "budgets": [8]}}, "sweep"),
            ({"rails": {"p99_budget": 100.0}}, "p99_budget"),
            ({"enabled": False}, "enabled"),
        ],
        ids=[f"spec{i}" for i in range(8)],
    )
    def test_unknown_keys_rejected(self, spec, key):
        with pytest.raises(ConfigurationError, match=f"unknown .* {key!r}"):
            TunerConfig.from_spec(spec)


class TestRailsConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RailsConfig(p99_budget_us=0.0)
        with pytest.raises(ConfigurationError):
            RailsConfig(min_samples=0)
        with pytest.raises(ConfigurationError):
            RailsConfig(refresh_every=0)

    def test_min_samples_beyond_the_window_rejected(self):
        """A rail could never be measured: its NIC keeps fewer spans."""
        assert RailsConfig(min_samples=SERVICE_WINDOW).min_samples == 1024
        with pytest.raises(ConfigurationError, match="min_samples .*1024"):
            RailsConfig(min_samples=SERVICE_WINDOW + 1)


class TestScenarioWiring:
    BASE = {
        "cluster": {"n_nodes": 2, "strategy": "aggregate"},
        "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
        "observability": {},
    }

    def test_tuner_block_installs_cluster_tuner(self):
        scenario = dict(self.BASE, tuner={"rails": {}})
        cluster, _ = build_scenario(scenario)
        assert set(cluster.tuner.selectors) == {"n0", "n1"}
        for name, selector in cluster.tuner.selectors.items():
            assert cluster.engine(name).rail_selector is selector

    def test_no_block_installs_nothing(self):
        cluster, _ = build_scenario(dict(self.BASE))
        assert cluster.tuner is None
        assert all(
            engine.rail_selector is None for engine in cluster.engines.values()
        )

    def test_typo_in_block_rejected(self):
        scenario = dict(self.BASE, tuner={"sweeps": {}})
        with pytest.raises(ConfigurationError, match="sweeps"):
            build_scenario(scenario)

    def test_legacy_engine_rejected(self):
        scenario = dict(self.BASE, tuner={})
        scenario["cluster"] = {"n_nodes": 2, "engine": "legacy"}
        with pytest.raises(ConfigurationError, match="optimizing"):
            build_scenario(scenario)

    @pytest.mark.parametrize(
        "observability", [None, {"trace": False}], ids=["absent", "trace-off"]
    )
    def test_untraced_scenario_gets_selectors(self, observability):
        """The selector reads the NICs' own windows: no trace needed."""
        scenario = dict(self.BASE, tuner={"rails": {}}, observability=observability)
        cluster, _ = build_scenario(scenario)
        assert set(cluster.tuner.selectors) == {"n0", "n1"}
