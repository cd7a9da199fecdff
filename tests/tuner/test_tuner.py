"""The tuner's install contract: a rail selector and nothing else.

A ``tuner`` block installs one :class:`TailRailSelector` per engine.  It
never replaces ``engine.strategy``, so dispatch without a tuner is
identical by construction — there is no wrapper to compare against.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.strategies.search import BoundedSearchStrategy
from repro.live.peer import LivePeer
from repro.network.nic import SERVICE_WINDOW
from repro.obs.analyze import analyze_events
from repro.runtime import Cluster
from repro.runtime.scenario import load_scenario_file, run_scenario
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

    def test_untraced_peer_gets_a_selector(self):
        peer = self.build(trace=False)
        assert peer.engines["n0"].rail_selector is peer.tuner.selectors["n0"]


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


_TUNER_EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "scenario_tuner.json"


class TestServiceWindowsOnTheExample:
    """``examples/scenario_tuner.json``: the selector's input is the NICs'
    windows, which the trace reproduces exactly and tracing does not move."""

    @pytest.fixture(scope="class")
    def runs(self):
        traced = load_scenario_file(_TUNER_EXAMPLE)
        untraced = dict(traced)
        del untraced["observability"]
        return run_scenario(traced)[1], run_scenario(untraced)[1]

    def test_each_window_is_the_traces_last_spans_bit_for_bit(self, runs):
        cluster, _ = runs
        rails = analyze_events(cluster.obs.events).rails
        for node in cluster.nodes:
            for nic in node.nics:
                spans = rails[nic.name].latencies if nic.name in rails else []
                expected = [span * 1e6 for span in spans][-SERVICE_WINDOW:]
                assert list(nic.service_us) == expected, nic.name
        assert rails  # the example does measure its rails

    def test_untraced_run_tunes_the_same(self, runs):
        traced, untraced = runs
        assert untraced.obs is None
        assert traced.tuner.summary() == untraced.tuner.summary()
        assert traced.tuner.summary()["nodes"]["n0"]["rails"]["refreshes"] == 10
