"""Tests for tail-acting rail selection."""

from types import SimpleNamespace

from repro.runtime.cluster import Cluster
from repro.tuner import RailsConfig, TailRailSelector, TunerConfig


def _driver(name, p99_us=None, count=100):
    """A driver whose NIC's service window has the given p99 (``None``:
    empty)."""
    window = [] if p99_us is None else [p99_us] * count
    return SimpleNamespace(nic=SimpleNamespace(name=name, service_us=window))


def _measure(driver, p99_us, count=100):
    driver.nic.service_us[:] = [p99_us] * count


def make(**config_kwargs):
    config = RailsConfig(
        p99_budget_us=config_kwargs.pop("p99_budget_us", 100.0),
        min_samples=config_kwargs.pop("min_samples", 10),
        refresh_every=config_kwargs.pop("refresh_every", 1),
    )
    return TailRailSelector(config)


class TestOrdering:
    def test_within_budget_rails_first_best_p99_leads(self):
        drivers = [_driver("slow", 500.0), _driver("ok", 90.0), _driver("best", 20.0)]
        selector = make()
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["best", "ok", "slow"]
        assert selector.last_buckets == {
            "slow": "over",
            "ok": "within",
            "best": "within",
        }

    def test_p99_is_exact_over_the_window(self):
        """numpy's linear p99 of 100 spans: 1 % of the way from the 99th
        order statistic to the 100th."""
        window = [10.0] * 99 + [1010.0]
        driver = SimpleNamespace(nic=SimpleNamespace(name="a", service_us=window))
        selector = make(p99_budget_us=20.01)
        selector.order([driver])
        assert selector.last_buckets == {"a": "within"}  # p99 ≈ 20.0
        selector = make(p99_budget_us=19.99)
        selector.order([driver])
        assert selector.last_buckets == {"a": "over"}

    def test_unmeasured_rails_keep_position_between_within_and_over(self):
        drivers = [_driver("over", 500.0), _driver("new"), _driver("good", 50.0)]
        selector = make()
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["good", "new", "over"]
        assert selector.last_buckets["new"] == "unmeasured"

    def test_too_few_samples_is_unmeasured(self):
        drivers = [_driver("a", 500.0, count=3), _driver("b", 50.0)]
        selector = make(min_samples=10)
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["b", "a"]
        assert selector.last_buckets["a"] == "unmeasured"

    def test_nothing_measured_keeps_original_order(self):
        drivers = [_driver("x"), _driver("y")]
        selector = make()
        assert list(selector.order(drivers)) == drivers

    def test_all_over_budget_with_burning_slo_explores_unmeasured_first(self):
        """The skewed-rail regression: TCP over budget, MX unmeasured —
        the unmeasured rail must be tried, not left behind the known-bad
        one."""
        drivers = [_driver("tcp", 500.0), _driver("mx")]
        selector = make()
        ordered = [d.nic.name for d in selector.order(drivers)]
        assert ordered == ["mx", "tcp"]

    def test_all_over_budget_with_objectives_goes_unmeasured_then_least_bad(self):
        """Edge objectives are verdicts on the trace, not selector inputs:
        with an ``slo`` block configured and every measured rail over
        budget, the order is still unmeasured first, then least-bad."""
        cluster = Cluster(
            n_nodes=2,
            networks=[("tcp", 1), ("mx", 1), ("elan", 1)],
            engine="optimizing",
            observability={"slo": [{"edge": "*", "threshold_us": 1e6}]},
            tuner=TunerConfig(rails=RailsConfig(p99_budget_us=100.0, min_samples=1)),
        )
        engine = cluster.engine("n0")
        tcp, mx, elan = engine.drivers
        tcp.nic.service_us.append(900.0)
        mx.nic.service_us.append(500.0)
        assert list(engine.rail_selector.order(engine.drivers)) == [elan, mx, tcp]


class TestCaching:
    def test_order_cached_between_refreshes(self):
        drivers = [_driver("a", 500.0), _driver("b", 50.0)]
        selector = make(refresh_every=100)
        first = selector.order(drivers)
        # Moving the windows has no effect until the refresh interval.
        _measure(drivers[0], 50.0)
        _measure(drivers[1], 500.0)
        assert selector.order(drivers) is first
        assert selector.refreshes == 1

    def test_refresh_recomputes(self):
        drivers = [_driver("a", 500.0), _driver("b", 50.0)]
        selector = make(refresh_every=2)
        assert [d.nic.name for d in selector.order(drivers)] == ["b", "a"]
        _measure(drivers[0], 50.0)
        _measure(drivers[1], 500.0)
        selector.order(drivers)  # second call within the window: cached
        assert [d.nic.name for d in selector.order(drivers)] == ["a", "b"]
        assert selector.refreshes == 2

    def test_driver_set_change_recomputes_immediately(self):
        selector = make(refresh_every=100)
        drivers = [_driver("a", 50.0), _driver("b")]
        selector.order(drivers)
        shrunk = drivers[:1]
        assert list(selector.order(shrunk)) == shrunk
        assert selector.refreshes == 2

    def test_summary_shape(self):
        selector = make()
        selector.order([_driver("a", 50.0)])
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
    def run(selection: bool, traced: bool = True):
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
            observability={"sample_interval": 1e-4} if traced else None,
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

    def test_selection_needs_no_trace(self):
        p99_traced_us, traced = self.run(selection=True)
        p99_untraced_us, untraced = self.run(selection=True, traced=False)
        assert p99_untraced_us == p99_traced_us <= 21.36
        assert untraced.summary() == traced.summary()
