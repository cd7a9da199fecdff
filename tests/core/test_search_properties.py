"""Property tests for the bounded search's decisions.

The strategy keeps no memo of its own: the only cached read on the
decision path is the queue's flat-array mirror.  What must still hold
is what the memo used to make cheap — an unchanged queue at the same
instant yields the same decision for the same budget — and that one
decision reads the lookahead window, not the backlog behind it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.strategies.search import BoundedSearchStrategy
from repro.madeleine.message import Flow
from repro.runtime.cluster import Cluster

from tests.core.helpers import build_loaded_cluster, data_entry, plan_signature

# Every test here runs against the production walk and again against the
# oracle it is compared to elsewhere (tests/core/conftest.py).
pytestmark = pytest.mark.usefixtures("walk")


def _loaded_engine(sizes, budget):
    holder = []

    def factory():
        strategy = BoundedSearchStrategy(budget=budget)
        holder.append(strategy)
        return strategy

    cluster = Cluster(
        seed=0, strategy=factory, config=EngineConfig(lookahead_window=16)
    )
    engine = cluster.engine("n0")
    flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(4)]
    for i, size in enumerate(sizes):
        engine._enqueue(data_entry(flows[i % len(flows)], size))
    return engine, holder[0]


class TestScoreMemoization:
    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=4096), min_size=1, max_size=16
        )
    )
    def test_unchanged_queue_replays_identical_decision(self, sizes):
        engine, strategy = _loaded_engine(sizes, budget=32)
        driver = engine.drivers[0]
        first = strategy.make_plan(engine, driver)
        evaluated = strategy.last_evaluated
        again = strategy.make_plan(engine, driver)
        # Same queue versions, same instant: the same plan wins with
        # the same budget spent.
        assert plan_signature(again) == plan_signature(first)
        assert strategy.last_evaluated == evaluated


class TestDecisionBoundedByWindow:
    def test_decision_does_not_grow_with_backlog_past_the_window(self):
        """One decision reads ``lookahead_window`` entries however deep
        the backlog behind them is: same window, same candidates, same
        plan at depth 64 and at depth 1,024."""
        outcomes = []
        for depth in (64, 1024):
            cluster = build_loaded_cluster(
                depth,
                strategy=lambda: BoundedSearchStrategy(budget=64),
                config=EngineConfig(lookahead_window=16),
            )
            engine = cluster.engine("n0")
            (queue,) = engine.waiting.non_empty()
            assert queue.pending_arrays(16).n == 16
            plan = engine.strategy.make_plan(engine, engine.drivers[0])
            assert plan is not None
            outcomes.append(
                (plan_signature(plan), engine.strategy.candidates_evaluated)
            )
        assert outcomes[0] == outcomes[1]
