"""Decision explainability: the ``optimizer.decide`` record."""

import pytest

from repro.core.config import EngineConfig
from repro.core.strategies.search import BoundedSearchStrategy
from repro.obs.recorder import ListSink
from repro.runtime.cluster import Cluster

from tests.core.helpers import build_loaded_cluster


def _traced_loaded_cluster(depth, *, budget=64, traced=True):
    cluster = build_loaded_cluster(
        depth,
        strategy=lambda: BoundedSearchStrategy(budget=budget),
        config=EngineConfig(lookahead_window=16),
    )
    sink = ListSink()
    if traced:
        cluster.sim.tracer.subscribe(sink)
    return cluster, sink


def _drain(cluster):
    engine = cluster.engine("n0")
    engine._kick("test")
    cluster.run_until_idle()
    assert engine.waiting.total_pending == 0


class TestDecideRecords:
    def test_one_record_per_dispatch(self):
        cluster, sink = _traced_loaded_cluster(32)
        _drain(cluster)
        decides = [e for e in sink.events if e.kind == "optimizer.decide"]
        dispatches = [e for e in sink.events if e.kind == "engine.dispatch"]
        n0_dispatches = [e for e in dispatches if e.source == "engine:n0"]
        n0_decides = [e for e in decides if e.source == "engine:n0"]
        assert len(n0_decides) == len(n0_dispatches) > 0

    def test_record_fields(self):
        cluster, sink = _traced_loaded_cluster(32)
        _drain(cluster)
        record = next(e for e in sink.events if e.kind == "optimizer.decide")
        d = record.detail
        assert d["strategy"] == "search"
        assert d["items"] >= 1
        assert d["nic"].startswith("n0.")
        assert d["dst"] == "n1"
        # cost-model breakdown, term by term
        score = d["score"]
        for key in (
            "wire_bytes",
            "payload_bytes",
            "occupancy_s",
            "density",
            "staleness_boost",
            "score",
        ):
            assert key in score
        assert score["score"] == pytest.approx(
            score["density"] * score["staleness_boost"]
        )
        # search explainability rides along
        assert d["candidates"] >= 1
        assert d["budget"] == 64
        assert d["truncation"] in ("budget", "exhausted")
        assert d["widest_items"] >= d["items"]

    def test_truncation_reason_budget(self):
        cluster, sink = _traced_loaded_cluster(64, budget=2)
        engine = cluster.engine("n0")
        engine.strategy.make_plan(engine, engine.drivers[0])
        explain = engine.strategy.explain_last()
        assert explain["truncation"] == "budget"
        assert explain["candidates"] == 2

    def test_truncation_reason_exhausted(self):
        cluster, sink = _traced_loaded_cluster(4, budget=10_000)
        engine = cluster.engine("n0")
        engine.strategy.make_plan(engine, engine.drivers[0])
        explain = engine.strategy.explain_last()
        assert explain["truncation"] == "exhausted"
        assert explain["candidates"] < 10_000

    def test_no_explain_collected_without_tracing(self):
        cluster, _ = _traced_loaded_cluster(16, traced=False)
        engine = cluster.engine("n0")
        engine.strategy.make_plan(engine, engine.drivers[0])
        assert engine.strategy.explain_last() is None


class TestTracingDoesNotChangeDecisions:
    def test_dispatch_sequence_identical_traced_vs_untraced(self):
        """Tracing must observe the optimizer, never steer it."""

        def dispatch_log(traced):
            cluster, sink = _traced_loaded_cluster(48, traced=traced)
            probe = []
            engine = cluster.engine("n0")
            original = engine._dispatch

            def recording_dispatch(plan):
                probe.append(
                    (
                        plan.kind.value,
                        plan.channel_id,
                        plan.dst,
                        len(plan.items),
                        plan.payload_bytes,
                        plan.driver.name,
                    )
                )
                return original(plan)

            engine._dispatch = recording_dispatch
            _drain(cluster)
            return probe

        assert dispatch_log(traced=False) == dispatch_log(traced=True)

    def test_budget_accounting_identical_traced_vs_untraced(self):
        def evaluated(traced):
            cluster, _ = _traced_loaded_cluster(48, traced=traced)
            engine = cluster.engine("n0")
            engine.strategy.make_plan(engine, engine.drivers[0])
            return engine.strategy.last_evaluated

        assert evaluated(traced=False) == evaluated(traced=True)


class TestOtherStrategies:
    def test_auto_strategy_reports_regime(self):
        cluster = Cluster(seed=0, strategy="auto")
        sink = ListSink()
        cluster.sim.tracer.subscribe(sink)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(20):
            api.send(flow, 256)
        cluster.run_until_idle()
        decides = [e for e in sink.events if e.kind == "optimizer.decide"]
        assert decides
        assert all(e.detail["regime"] in ("deep", "sparse") for e in decides)

    def test_default_strategy_still_emits_decides(self):
        """Strategies without explain hooks still get the cost breakdown."""
        cluster = Cluster(seed=0)
        sink = ListSink()
        cluster.sim.tracer.subscribe(sink)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(5):
            api.send(flow, 256)
        cluster.run_until_idle()
        decides = [e for e in sink.events if e.kind == "optimizer.decide"]
        assert decides
        assert all("score" in e.detail for e in decides)
        assert all("widest_items" not in e.detail for e in decides)
