"""Tests for the auto meta-strategy (dynamic policy selection)."""

import pytest

from repro.core.strategies import AutoStrategy, make_strategy
from repro.runtime import Cluster, run_session
from repro.sim import Process
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us


class TestConstruction:
    def test_registered(self):
        assert isinstance(make_strategy("auto"), AutoStrategy)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AutoStrategy(deep_backlog=0)
        with pytest.raises(ConfigurationError):
            AutoStrategy(hold_delay=-1.0)


class TestRegimeSelection:
    def test_deep_backlog_uses_aggregation(self):
        holder = {}

        def factory():
            strategy = AutoStrategy(deep_backlog=4)
            holder.setdefault("s", strategy)
            return strategy

        cluster = Cluster(strategy=factory, seed=1)
        api = cluster.api("n0")
        flows = [api.open_flow("n1") for _ in range(8)]
        for flow in flows:
            for _ in range(10):
                api.send(flow, 256)
        cluster.run_until_idle()
        strategy = holder["s"]
        assert strategy.selections["deep"] > 0

    def test_sparse_arrivals_use_nagle(self):
        holder = {}

        def factory():
            strategy = AutoStrategy(deep_backlog=50, hold_delay=5 * us)
            holder.setdefault("s", strategy)
            return strategy

        cluster = Cluster(strategy=factory, seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1")

        def slow_sender():
            for _ in range(10):
                yield 10 * us
                api.send(flow, 64)

        Process(cluster.sim, slow_sender())
        cluster.run_until_idle()
        strategy = holder["s"]
        assert strategy.selections["sparse"] > 0
        assert cluster.engine("n0").stats.holds > 0

    def test_all_messages_delivered_both_regimes(self):
        cluster = Cluster(strategy=lambda: AutoStrategy(deep_backlog=6), seed=2)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        burst = [api.send(flow, 256) for _ in range(20)]

        trickle = []

        def trickler():
            for _ in range(5):
                yield 20 * us
                trickle.append(api.send(flow, 64))

        Process(cluster.sim, trickler())
        cluster.run_until_idle()
        assert all(m.completion.done for m in burst + trickle)

    def test_auto_matches_aggregate_under_saturation(self):
        """With a permanently deep backlog, auto == aggregate."""

        def run(strategy):
            cluster = Cluster(strategy=strategy, seed=3)
            api = cluster.api("n0")
            flows = [api.open_flow("n1") for _ in range(8)]
            for f in flows:
                for _ in range(25):
                    api.send(f, 256)
            cluster.run_until_idle()
            return cluster.report()

        auto = run(lambda: AutoStrategy(deep_backlog=2))
        plain = run("aggregate")
        assert auto.network_transactions == plain.network_transactions
        assert auto.latency.mean == pytest.approx(plain.latency.mean)
