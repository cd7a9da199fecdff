"""Tests for tail-acting rail selection."""

from types import SimpleNamespace

from repro.runtime.cluster import Cluster
from repro.tuner import RailsConfig, TailRailSelector, TunerConfig
from repro.tuner import rails as rails_mod


def _driver(name):
    return SimpleNamespace(nic=SimpleNamespace(name=name))


def _stats(p99_us, count=100):
    return SimpleNamespace(p99_us=p99_us, count=count)


class _FakeView:
    """Just enough TailView: per-rail stats + SLO inputs."""

    def __init__(self, by_nic, objectives=()):
        self.by_nic = by_nic
        self.objectives = objectives
        self.registry = None  # only touched via evaluate_slo (patched)

    def rail(self, nic):
        return self.by_nic.get(nic)


def make(by_nic, *, objectives=(), **config_kwargs):
    config = RailsConfig(
        p99_budget_us=config_kwargs.pop("p99_budget_us", 100.0),
        min_samples=config_kwargs.pop("min_samples", 10),
        refresh_every=config_kwargs.pop("refresh_every", 1),
    )
    return TailRailSelector(_FakeView(by_nic, objectives), config)


class TestOrdering:
    def test_within_budget_rails_first_best_p99_leads(self):
        drivers = [_driver("slow"), _driver("ok"), _driver("best")]
        selector = make(
            {"slow": _stats(500.0), "ok": _stats(90.0), "best": _stats(20.0)}
        )
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["best", "ok", "slow"]
        assert selector.last_buckets == {
            "slow": "over",
            "ok": "within",
            "best": "within",
        }

    def test_unmeasured_rails_keep_position_between_within_and_over(self):
        drivers = [_driver("over"), _driver("new"), _driver("good")]
        selector = make({"over": _stats(500.0), "good": _stats(50.0)})
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["good", "new", "over"]
        assert selector.last_buckets["new"] == "unmeasured"

    def test_too_few_samples_is_unmeasured(self):
        drivers = [_driver("a"), _driver("b")]
        selector = make(
            {"a": _stats(500.0, count=3), "b": _stats(50.0)}, min_samples=10
        )
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["b", "a"]
        assert selector.last_buckets["a"] == "unmeasured"

    def test_nothing_measured_keeps_original_order(self):
        drivers = [_driver("x"), _driver("y")]
        selector = make({})
        assert list(selector.order(drivers)) == drivers

    def test_all_over_budget_with_burning_slo_explores_unmeasured_first(self):
        """The skewed-rail regression: TCP over budget, MX unmeasured —
        the unmeasured rail must be tried, not left behind the known-bad
        one."""
        drivers = [_driver("tcp"), _driver("mx")]
        selector = make({"tcp": _stats(500.0)})  # no objectives => burning
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["mx", "tcp"]

    def test_all_over_budget_with_healthy_slo_keeps_original_order(self, monkeypatch):
        drivers = [_driver("a"), _driver("b")]
        selector = make(
            {"a": _stats(500.0), "b": _stats(600.0)},
            objectives=(object(),),
        )
        monkeypatch.setattr(
            rails_mod,
            "evaluate_slo",
            lambda registry, objectives: [SimpleNamespace(worst_burn=0.1)],
        )
        assert [d.nic.name for d in selector.order(drivers)] == ["a", "b"]

    def test_all_over_budget_with_burning_slo_goes_least_bad_first(self, monkeypatch):
        drivers = [_driver("worse"), _driver("bad")]
        selector = make(
            {"worse": _stats(900.0), "bad": _stats(500.0)},
            objectives=(object(),),
        )
        monkeypatch.setattr(
            rails_mod,
            "evaluate_slo",
            lambda registry, objectives: [SimpleNamespace(worst_burn=2.0)],
        )
        assert [d.nic.name for d in selector.order(drivers)] == ["bad", "worse"]


class TestCaching:
    def test_order_cached_between_refreshes(self):
        drivers = [_driver("a"), _driver("b")]
        view_stats = {"a": _stats(500.0), "b": _stats(50.0)}
        selector = make(dict(view_stats), refresh_every=100)
        first = selector.order(drivers)
        # Swapping the stats has no effect until the refresh interval.
        selector.tail_view.by_nic = {"a": _stats(50.0), "b": _stats(500.0)}
        assert selector.order(drivers) is first
        assert selector.refreshes == 1

    def test_refresh_recomputes(self):
        drivers = [_driver("a"), _driver("b")]
        selector = make({"a": _stats(500.0), "b": _stats(50.0)}, refresh_every=2)
        assert [d.nic.name for d in selector.order(drivers)] == ["b", "a"]
        selector.tail_view.by_nic = {"a": _stats(50.0), "b": _stats(500.0)}
        selector.order(drivers)  # second call within the window: cached
        assert [d.nic.name for d in selector.order(drivers)] == ["a", "b"]
        assert selector.refreshes == 2

    def test_driver_set_change_recomputes_immediately(self):
        selector = make({"a": _stats(50.0)}, refresh_every=100)
        drivers = [_driver("a"), _driver("b")]
        selector.order(drivers)
        shrunk = drivers[:1]
        assert list(selector.order(shrunk)) == shrunk
        assert selector.refreshes == 2

    def test_summary_shape(self):
        selector = make({"a": _stats(50.0)})
        selector.order([_driver("a")])
        summary = selector.summary()
        assert summary["p99_budget_us"] == 100.0
        assert summary["buckets"] == {"a": "within"}
        assert summary["order"] == ["a"]


class TestSkewedRailRun:
    """The selector acting on a whole simulated run: a slow TCP rail is
    listed *before* a fast MX rail, so the engine's in-order rail scan
    parks sparse traffic on TCP until the selector sees TCP's p99 blow
    the budget and serves MX first."""

    @staticmethod
    def run(selection: bool):
        count, interval = 200, 1e-4
        tuner = None
        if selection:
            tuner = TunerConfig(
                rails=RailsConfig(p99_budget_us=50.0, min_samples=16, refresh_every=8)
            )
        cluster = Cluster(
            n_nodes=2,
            networks=[("tcp", 1), ("mx", 1)],
            engine="optimizing",
            strategy="aggregate",
            seed=11,
            observability={"sample_interval": 1e-4},
            tuner=tuner,
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for i in range(count):
            cluster.sim.at(i * interval, lambda: api.send(flow, 4096))
        cluster.run_until_idle()
        # p99 over the second half: the selector needs ``min_samples``
        # spans on the slow rail before it can act, and that warmup is
        # the price of learning, not the steady state being compared.
        report = cluster.report(since=count // 2 * interval)
        return report.latency.p99 * 1e6, cluster.engine("n0").rail_selector

    def test_selection_lowers_steady_state_p99(self):
        p99_off_us, no_selector = self.run(selection=False)
        p99_on_us, selector = self.run(selection=True)
        assert no_selector is None
        assert selector.refreshes >= 1
        assert p99_on_us < p99_off_us
