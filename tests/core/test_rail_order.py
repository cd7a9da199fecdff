"""The tail-acting rail order: a pump visits rails that keep their tail.

A scenario ``"tuner"`` block parses (``runtime/scenario.py``) into one
:class:`TailRailOrder` per engine, built with the engine, in the sim and
live planes alike, traced or not.  It never replaces ``engine.strategy``,
and without the block no engine has one, so untuned dispatch is
identical by construction.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.__main__ import main
from repro.core.channels import TailRailOrder
from repro.core.strategies.search import BoundedSearchStrategy
from repro.live.peer import LivePeer
from repro.network.nic import SERVICE_WINDOW
from repro.obs.analyze import analyze_events
from repro.runtime import Cluster
from repro.runtime.scenario import (
    build_scenario,
    load_scenario_file,
    parse_cluster,
    run_scenario,
)
from repro.util.errors import ConfigurationError

_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _driver(name, p99_us=None, count=100):
    """A driver whose NIC's service window has the given p99 (``None``:
    empty)."""
    window = [] if p99_us is None else [p99_us] * count
    return SimpleNamespace(nic=SimpleNamespace(name=name, service_us=window))


def _measure(driver, p99_us, count=100):
    driver.nic.service_us[:] = [p99_us] * count


def make(p99_budget_us=100.0, min_samples=10, refresh_every=1):
    return TailRailOrder(p99_budget_us, min_samples, refresh_every)


def parse(tuner, engine="optimizing"):
    """The ``"tuner"`` block through the scenario parser."""
    return parse_cluster({"cluster": {"engine": engine}, "tuner": tuner})["rail_order"]


class TestTunerBlock:
    def test_defaults(self):
        for block in ({}, {"rails": {}}):
            order = parse(block)()
            assert (order.p99_budget_us, order.min_samples, order.refresh_every) == (
                1000.0, 32, 32
            )

    def test_from_spec_full_block(self):
        order = parse({"rails": {"p99_budget_us": 250.0}})()
        assert order.p99_budget_us == 250.0
        # untouched sub-keys keep their defaults
        assert order.min_samples == 32

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
            parse(spec)

    @pytest.mark.parametrize(
        "tuner, key",
        [
            ({"rails": {"p99_budget_us": 0.0}}, "p99_budget_us"),
            ({"rails": {"min_samples": 0}}, "min_samples"),
            ({"rails": {"refresh_every": 0}}, "refresh_every"),
            ({"rails": None}, "rails"),
            ([], "tuner"),
            ({"rails": {"p99_budget_us": "x"}}, "p99_budget_us"),
            # a NaN budget would put every rail in the "over" bucket
            ({"rails": {"p99_budget_us": math.nan}}, "p99_budget_us"),
            ({"rails": {"min_samples": 2.5}}, "min_samples"),
            ({"rails": {"refresh_every": 1.5}}, "refresh_every"),
            ({"rails": {"min_samples": True}}, "min_samples"),
        ],
        ids=[
            "zero-budget", "zero-min-samples", "zero-refresh", "null-rails",
            "list-block", "string-budget", "nan-budget", "fractional-min-samples",
            "fractional-refresh", "bool-min-samples",
        ],
    )
    def test_validation(self, tuner, key):
        with pytest.raises(ConfigurationError, match=key):
            parse(tuner)

    def test_min_samples_beyond_the_window_rejected(self):
        """A rail could never be measured: its NIC keeps fewer spans."""
        assert TailRailOrder(min_samples=SERVICE_WINDOW).min_samples == 1024
        with pytest.raises(ConfigurationError, match="min_samples .*1024"):
            TailRailOrder(min_samples=SERVICE_WINDOW + 1)


class TestScenarioWiring:
    BASE = {
        "cluster": {"n_nodes": 2, "strategy": "aggregate"},
        "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
        "observability": {},
    }

    def test_tuner_block_gives_every_engine_a_rail_order(self):
        scenario = dict(self.BASE, tuner={"rails": {"refresh_every": 4}})
        cluster, _ = build_scenario(scenario)
        orders = [engine.rail_order for engine in cluster.engines.values()]
        assert all(isinstance(order, TailRailOrder) for order in orders)
        assert orders[0] is not orders[1]
        assert {order.refresh_every for order in orders} == {4}

    def test_no_block_installs_nothing(self):
        for scenario in (dict(self.BASE), dict(self.BASE, tuner=None)):
            cluster, _ = build_scenario(scenario)
            assert all(
                engine.rail_order is None for engine in cluster.engines.values()
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
    def test_untraced_scenario_gets_rail_orders(self, observability):
        """The order reads the NICs' own windows: no trace needed."""
        scenario = dict(self.BASE, tuner={"rails": {}}, observability=observability)
        cluster, _ = build_scenario(scenario)
        assert all(
            isinstance(engine.rail_order, TailRailOrder)
            for engine in cluster.engines.values()
        )


class TestOrdering:
    def test_within_budget_rails_first_best_p99_leads(self):
        drivers = [_driver("slow", 500.0), _driver("ok", 90.0), _driver("best", 20.0)]
        order = make()
        ordered = [d.nic.name for d in order.order(drivers)]
        assert ordered == ["best", "ok", "slow"]
        assert order.last_buckets == {
            "slow": "over",
            "ok": "within",
            "best": "within",
        }

    def test_p99_is_exact_over_the_window(self):
        """numpy's linear p99 of 100 spans: 1 % of the way from the 99th
        order statistic to the 100th."""
        window = [10.0] * 99 + [1010.0]
        driver = SimpleNamespace(nic=SimpleNamespace(name="a", service_us=window))
        order = make(p99_budget_us=20.01)
        order.order([driver])
        assert order.last_buckets == {"a": "within"}  # p99 ≈ 20.0
        order = make(p99_budget_us=19.99)
        order.order([driver])
        assert order.last_buckets == {"a": "over"}

    def test_unmeasured_rails_keep_position_between_within_and_over(self):
        drivers = [_driver("over", 500.0), _driver("new"), _driver("good", 50.0)]
        order = make()
        ordered = [d.nic.name for d in order.order(drivers)]
        assert ordered == ["good", "new", "over"]
        assert order.last_buckets["new"] == "unmeasured"

    def test_too_few_samples_is_unmeasured(self):
        drivers = [_driver("a", 500.0, count=3), _driver("b", 50.0)]
        order = make(min_samples=10)
        ordered = [d.nic.name for d in order.order(drivers)]
        assert ordered == ["b", "a"]
        assert order.last_buckets["a"] == "unmeasured"

    def test_nothing_measured_keeps_original_order(self):
        drivers = [_driver("x"), _driver("y")]
        assert make().order(drivers) == drivers

    def test_all_over_budget_with_burning_slo_explores_unmeasured_first(self):
        """The skewed-rail regression: TCP over budget, MX unmeasured —
        the unmeasured rail must be tried, not left behind the known-bad
        one."""
        drivers = [_driver("tcp", 500.0), _driver("mx")]
        ordered = [d.nic.name for d in make().order(drivers)]
        assert ordered == ["mx", "tcp"]

    def test_all_over_budget_with_objectives_goes_unmeasured_then_least_bad(self):
        """Edge objectives are verdicts on the trace, not inputs to the
        order: with an ``slo`` block configured and every measured rail
        over budget, the order is still unmeasured first, then least-bad."""
        cluster = Cluster(
            n_nodes=2,
            networks=[("tcp", 1), ("mx", 1), ("elan", 1)],
            engine="optimizing",
            observability={"slo": [{"edge": "*", "threshold_us": 1e6}]},
            rail_order=partial(TailRailOrder, p99_budget_us=100.0, min_samples=1),
        )
        engine = cluster.engine("n0")
        tcp, mx, elan = engine.drivers
        tcp.nic.service_us.append(900.0)
        mx.nic.service_us.append(500.0)
        assert engine.rail_order.order(engine.drivers) == [elan, mx, tcp]


class TestCaching:
    def test_order_cached_between_refreshes(self):
        drivers = [_driver("a", 500.0), _driver("b", 50.0)]
        order = make(refresh_every=100)
        first = order.order(drivers)
        # Moving the windows has no effect until the refresh interval.
        _measure(drivers[0], 50.0)
        _measure(drivers[1], 500.0)
        assert order.order(drivers) is first
        assert order.refreshes == 1

    def test_refresh_recomputes(self):
        drivers = [_driver("a", 500.0), _driver("b", 50.0)]
        order = make(refresh_every=2)
        assert [d.nic.name for d in order.order(drivers)] == ["b", "a"]
        _measure(drivers[0], 50.0)
        _measure(drivers[1], 500.0)
        order.order(drivers)  # second call within the window: cached
        assert [d.nic.name for d in order.order(drivers)] == ["a", "b"]
        assert order.refreshes == 2

    def test_summary_shape(self):
        order = make()
        order.order([_driver("a", 50.0)])
        summary = order.summary()
        assert summary["p99_budget_us"] == 100.0
        assert summary["buckets"] == {"a": "within"}
        assert summary["order"] == ["a"]


class TestSkewedRailRun:
    """The order acting on a whole simulated run: a slow TCP rail is
    listed *before* a fast MX rail, so the engine's in-order rail scan
    parks sparse traffic on TCP until the order sees TCP's p99 blow the
    budget and serves MX first."""

    @staticmethod
    def run(selection: bool, traced: bool = True):
        count, interval = 200, 1e-4
        cluster = Cluster(
            n_nodes=2,
            networks=[("tcp", 1), ("mx", 1)],
            engine="optimizing",
            strategy="aggregate",
            seed=11,
            observability={"sample_interval": 1e-4} if traced else None,
            rail_order=(
                partial(TailRailOrder, p99_budget_us=50.0, min_samples=16, refresh_every=8)
                if selection
                else None
            ),
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for i in range(count):
            cluster.sim.at(i * interval, lambda: api.send(flow, 4096))
        cluster.run_until_idle()
        # p99 over the second half: the order needs ``min_samples`` spans
        # on the slow rail before it can act, and that warmup is the
        # price of learning, not the steady state being compared.
        report = cluster.report(since=count // 2 * interval)
        return report.latency.p99 * 1e6, cluster.engine("n0").rail_order

    def test_selection_lowers_steady_state_p99(self):
        p99_off_us, no_order = self.run(selection=False)
        p99_on_us, order = self.run(selection=True)
        assert no_order is None
        assert order.refreshes >= 1
        assert p99_on_us < p99_off_us
        assert round(p99_off_us, 2) == 105.49 and round(p99_on_us, 2) == 21.36

    def test_selection_needs_no_trace(self):
        p99_traced_us, traced = self.run(selection=True)
        p99_untraced_us, untraced = self.run(selection=True, traced=False)
        assert p99_untraced_us == p99_traced_us <= 21.36
        assert untraced.summary() == traced.summary()


class TestUntuned:
    def test_untuned_run_never_orders_rails(self):
        """Without a ``tuner`` block no engine has a rail order, and a
        whole run never calls one: untuned dispatch is the listed order."""
        assert all(engine.rail_order is None for engine in Cluster().engines.values())
        scenario = load_scenario_file(_EXAMPLES / "scenario_mixed.json")
        with mock.patch.object(
            TailRailOrder, "order", side_effect=AssertionError("rail order called")
        ):
            _report, cluster, apps = run_scenario(scenario)
        assert all(app.done.done for app in apps)
        assert all(engine.rail_order is None for engine in cluster.engines.values())


class TestInstall:
    def test_strategy_stays_the_factorys_object(self):
        built = []

        def factory():
            built.append(BoundedSearchStrategy(budget=8))
            return built[-1]

        cluster = Cluster(strategy=factory, observability={}, rail_order=TailRailOrder)
        for name, strategy in zip(cluster.node_names, built):
            engine = cluster.engine(name)
            assert engine.strategy is strategy
            assert isinstance(engine.rail_order, TailRailOrder)


class TestLivePeer:
    """The live plane builds the same order under the same rule."""

    @staticmethod
    def build(trace: bool) -> LivePeer:
        scenario = {
            "cluster": {"n_nodes": 2, "strategy": "aggregate"},
            "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
            "tuner": {"rails": {"min_samples": 8}},
        }
        config = {
            "scenario": scenario, "rank": 0, "n_nodes": 2,
            "epoch": time.time(), "trace": trace,
        }

        async def construct():
            return LivePeer(config)

        return asyncio.run(construct())

    def test_traced_peer_gets_a_rail_order(self):
        engine = self.build(trace=True).engines["n0"]
        assert isinstance(engine.rail_order, TailRailOrder)
        assert engine.rail_order.min_samples == 8
        assert type(engine.strategy).name == "aggregate"

    def test_untraced_peer_gets_a_rail_order(self):
        engine = self.build(trace=False).engines["n0"]
        assert isinstance(engine.rail_order, TailRailOrder)


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
    def test_summary_shape(self, tmp_path, capsys):
        """``repro run --json`` reports each engine's order under ``tuner``."""
        scenario = tmp_path / "tuned.json"
        scenario.write_text(json.dumps({
            "cluster": {"n_nodes": 2},
            "workloads": [{"app": "stream", "src": "n0", "dst": "n1", "count": 1}],
            "tuner": {},
        }))
        assert main(["run", str(scenario), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["tuner"]
        assert set(summary["nodes"]) == {"n0", "n1"}
        assert summary["nodes"]["n0"]["rails"]["refreshes"] == 1
        assert summary["nodes"]["n1"]["rails"]["refreshes"] == 0


class TestServiceWindowsOnTheExample:
    """``examples/scenario_tuner.json``: the order's input is the NICs'
    windows, which the trace reproduces exactly and tracing does not move."""

    @pytest.fixture(scope="class")
    def runs(self):
        traced = load_scenario_file(_EXAMPLES / "scenario_tuner.json")
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
        summaries = [
            [engine.rail_order.summary() for engine in cluster.engines.values()]
            for cluster in runs
        ]
        assert runs[1].obs is None
        assert summaries[0] == summaries[1]
        assert summaries[0][0]["refreshes"] == 10
