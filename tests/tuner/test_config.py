"""Tests for the strict ``"tuner"`` scenario block."""

import pytest

from repro.runtime.scenario import build_scenario
from repro.tuner import RailsConfig, SweepConfig, TunerConfig
from repro.util.errors import ConfigurationError


class TestTunerConfig:
    def test_defaults(self):
        config = TunerConfig()
        assert config.enabled
        assert config.sweep is None and config.rails is None

    def test_from_spec_full_block(self):
        config = TunerConfig.from_spec(
            {
                "enabled": True,
                "sweep": {"mode": "halving", "windows": [8, 16], "budgets": [32]},
                "rails": {"p99_budget_us": 250.0},
            }
        )
        assert config.sweep.mode == "halving"
        assert config.sweep.windows == (8, 16)
        assert config.rails.p99_budget_us == 250.0
        # untouched sub-keys keep their defaults
        assert config.rails.min_samples == 32

    @pytest.mark.parametrize(
        "spec",
        [
            {"enabled": True, "sweeps": {}},  # typo at the top level
            # keys of the removed regime tracker are unknown, not ignored
            {"min_dwell": 4},
            {"drift_window": 2},
            {"deep_backlog": 16},
            {"tail_drift_factor": 4.0},
            {"sweep": {"windows": [8], "budgets": [8], "modes": "epsilon"}},
            {"rails": {"p99_budget": 100.0}},
        ],
    )
    def test_unknown_keys_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="unknown"):
            TunerConfig.from_spec(spec)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(mode="greedy")
        with pytest.raises(ConfigurationError):
            SweepConfig(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            SweepConfig(trial_decisions=0)
        with pytest.raises(ConfigurationError):
            SweepConfig(windows=())
        with pytest.raises(ConfigurationError):
            SweepConfig(budgets=(0,))


class TestRailsConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RailsConfig(p99_budget_us=0.0)
        with pytest.raises(ConfigurationError):
            RailsConfig(min_samples=0)
        with pytest.raises(ConfigurationError):
            RailsConfig(refresh_every=0)


class TestScenarioWiring:
    BASE = {
        "cluster": {"n_nodes": 2, "strategy": "aggregate"},
        "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
    }

    def test_tuner_block_installs_cluster_tuner(self):
        scenario = dict(self.BASE, tuner={})
        cluster, _ = build_scenario(scenario)
        assert cluster.tuner is not None
        assert set(cluster.tuner.tuners) == {"n0", "n1"}

    def test_disabled_block_installs_nothing(self):
        scenario = dict(self.BASE, tuner={"enabled": False})
        cluster, _ = build_scenario(scenario)
        assert cluster.tuner is None

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
