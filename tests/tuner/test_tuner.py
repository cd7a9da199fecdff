"""The tuner's install contract: a rail selector and nothing else.

A ``tuner`` block installs one :class:`TailRailSelector` per engine.  It
never replaces ``engine.strategy``, so dispatch without a tuner is
identical by construction — there is no wrapper to compare against.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.__main__ import main
from repro.core.strategies.search import BoundedSearchStrategy
from repro.live.peer import LivePeer
from repro.runtime import Cluster
from repro.tuner import ClusterTuner, TailRailSelector, TunerConfig
from repro.util.errors import ConfigurationError


class TestInstall:
    def test_strategy_stays_the_factorys_object(self):
        built = []

        def factory():
            built.append(BoundedSearchStrategy(budget=8))
            return built[-1]

        cluster = Cluster(strategy=factory, observability={}, tuner={"rails": {}})
        for name, strategy in zip(cluster.node_names, built):
            engine = cluster.engine(name)
            assert engine.strategy is strategy
            assert isinstance(engine.rail_selector, TailRailSelector)

    def test_double_install_rejected(self):
        cluster = Cluster(observability={}, tuner={})
        with pytest.raises(ConfigurationError, match="already installed"):
            ClusterTuner(TunerConfig()).install(cluster)

    def test_cluster_tuner_double_install_rejected(self):
        cluster = Cluster(observability={})
        tuner = ClusterTuner(TunerConfig())
        tuner.install(cluster)
        with pytest.raises(ConfigurationError, match="already installed"):
            tuner.install(cluster)


class TestLivePeer:
    """The live plane installs the same selector under the same rule."""

    @staticmethod
    def build(trace: bool) -> LivePeer:
        scenario = {
            "cluster": {"n_nodes": 2, "strategy": "aggregate"},
            "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
            "tuner": {"rails": {}},
        }
        config = {
            "scenario": scenario, "rank": 0, "n_nodes": 2,
            "epoch": time.time(), "trace": trace,
        }

        async def construct():
            return LivePeer(config)

        return asyncio.run(construct())

    def test_traced_peer_gets_a_selector(self):
        peer = self.build(trace=True)
        engine = peer.engines["n0"]
        assert engine.rail_selector is peer.tuner.selectors["n0"]
        assert type(engine.strategy).name == "aggregate"

    def test_rails_without_recorded_tails_rejected(self):
        with pytest.raises(ConfigurationError, match="observability.trace"):
            self.build(trace=False)


class TestCli:
    def test_tuner_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "examples/scenario_tuner.json", "--tuner", "on"])
        assert "--tuner" in capsys.readouterr().err

    def test_tune_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "examples/scenario_tuner.json"])
        assert "tune" in capsys.readouterr().err


class TestSummary:
    def test_summary_shape(self):
        cluster = Cluster(observability={}, tuner={})
        engine = cluster.engine("n0")
        engine.rail_selector.order(engine.drivers)
        summary = cluster.tuner.summary()
        assert set(summary["nodes"]) == {"n0", "n1"}
        assert summary["nodes"]["n0"]["rails"]["refreshes"] == 1
        assert summary["nodes"]["n1"]["rails"]["refreshes"] == 0
