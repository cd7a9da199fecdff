"""Tests for the strategy database: registry + behavioural differences."""

import pytest

from repro.core.config import EngineConfig
from repro.core.strategies import (
    AggregationStrategy,
    BoundedSearchStrategy,
    EagerStrategy,
    NagleStrategy,
    STRATEGY_TYPES,
    Strategy,
    make_strategy,
    register_strategy,
)
from repro.runtime.cluster import Cluster
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us

# Every test here runs against the production walk and again against the
# oracle it is compared to elsewhere (tests/core/conftest.py).
pytestmark = pytest.mark.usefixtures("walk")


class TestRegistry:
    def test_predefined_strategies_registered(self):
        assert {"eager", "aggregate", "search", "nagle", "legacy"} <= set(STRATEGY_TYPES)

    def test_make_strategy(self):
        assert isinstance(make_strategy("aggregate"), AggregationStrategy)
        assert isinstance(make_strategy("search", budget=4), BoundedSearchStrategy)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_strategy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_strategy("eager")
            class Dup(Strategy):
                def make_plan(self, engine, driver):
                    return None

    def test_non_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            register_strategy("bogus-type")(object)

    def test_extension_point(self):
        """The paper's 'database can be easily extended' claim, executable."""

        @register_strategy("test-custom")
        class CustomStrategy(AggregationStrategy):
            pass

        try:
            assert isinstance(make_strategy("test-custom"), CustomStrategy)
            c = Cluster(strategy="test-custom")
            api = c.api("n0")
            m = api.send(api.open_flow("n1"), 128)
            c.run_until_idle()
            assert m.completion.done
        finally:
            del STRATEGY_TYPES["test-custom"]


def run_many_small(strategy, n_flows=8, per_flow=16, **cluster_kwargs):
    c = Cluster(strategy=strategy, **cluster_kwargs)
    api = c.api("n0")
    flows = [api.open_flow("n1") for _ in range(n_flows)]
    messages = []
    for f in flows:
        for _ in range(per_flow):
            messages.append(api.send(f, 256))
    c.run_until_idle()
    assert all(m.completion.done for m in messages)
    return c.report()


class TestBehaviouralContrasts:
    def test_aggregate_fewer_transactions_than_eager(self):
        eager = run_many_small("eager")
        aggregated = run_many_small("aggregate")
        assert aggregated.network_transactions < eager.network_transactions / 2
        assert aggregated.aggregation_ratio > 2.0
        assert eager.aggregation_ratio == pytest.approx(1.0)

    def test_aggregate_higher_throughput(self):
        eager = run_many_small("eager")
        aggregated = run_many_small("aggregate")
        assert aggregated.throughput > eager.throughput

    def test_search_at_least_as_good_as_greedy_on_transactions(self):
        greedy = run_many_small("aggregate")
        searched = run_many_small(lambda: BoundedSearchStrategy(budget=64))
        assert searched.network_transactions <= greedy.network_transactions * 1.5

    def test_search_budget_one_runs(self):
        report = run_many_small(lambda: BoundedSearchStrategy(budget=1))
        assert report.messages == 8 * 16

    def test_nagle_improves_aggregation_under_sparse_arrivals(self):
        """A short artificial delay lets sparse arrivals coalesce."""

        def sparse(strategy, config=None):
            c = Cluster(strategy=strategy, config=config, seed=3)
            api = c.api("n0")
            flows = [api.open_flow("n1") for _ in range(4)]
            from repro.sim import Process

            def sender(flow):
                for _ in range(25):
                    yield 2.0 * us
                    api.send(flow, 128)

            for f in flows:
                Process(c.sim, sender(f))
            c.run_until_idle()
            return c.report()

        plain = sparse("aggregate")
        nagled = sparse(
            lambda: NagleStrategy(),
            config=EngineConfig(nagle_delay=8 * us, nagle_min_bytes=2 * KiB),
        )
        assert nagled.aggregation_ratio > plain.aggregation_ratio
        assert nagled.network_transactions < plain.network_transactions

    def test_aggregation_strategy_custom_max_items(self):
        report = run_many_small(lambda: AggregationStrategy(max_items=2))
        # At most 2 segments per packet -> ratio can't exceed 2.
        assert report.aggregation_ratio <= 2.0 + 1e-9


class TestSearchBudgetAccounting:
    """The bounded search must not burn budget on impossible seeds."""

    def _loaded_single_flow_engine(self, n_entries, budget):
        holder = []

        def factory():
            strategy = BoundedSearchStrategy(budget=budget)
            holder.append(strategy)
            return strategy

        from tests.core.helpers import data_entry
        from repro.madeleine.message import Flow

        cluster = Cluster(seed=0, strategy=factory)
        engine = cluster.engine("n0")
        flow = Flow(0, "f", "n0", "n1")
        for _ in range(n_entries):
            engine._enqueue(data_entry(flow, 256))
        return engine, holder[0]

    def test_exhausted_queue_stops_consuming_budget(self):
        # A single non-deferrable flow: skipping the head (seed >= 1)
        # blocks every later entry of the flow, so only seed 0 can ever
        # produce a plan.  The search must charge the widths of seed 0
        # plus exactly ONE probe discovering that seed 1 is impossible,
        # then move on — not one probe per remaining seed.
        engine, strategy = self._loaded_single_flow_engine(n_entries=8, budget=32)
        driver = engine.drivers[0]
        plan = strategy.make_plan(engine, driver)
        assert plan is not None
        n_widths = len(BoundedSearchStrategy._widths(driver.max_segments_per_packet()))
        assert strategy.last_evaluated == n_widths + 1
        assert strategy.candidates_evaluated == strategy.last_evaluated

    def test_budget_still_caps_evaluations(self):
        engine, strategy = self._loaded_single_flow_engine(n_entries=8, budget=2)
        driver = engine.drivers[0]
        plan = strategy.make_plan(engine, driver)
        assert plan is not None
        assert strategy.last_evaluated == 2
