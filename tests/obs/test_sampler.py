"""Sampler correctness: what it records must equal a direct recount."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import ObservabilitySampler
from repro.runtime.cluster import Cluster
from repro.util.errors import ConfigurationError


def _drive(cluster: Cluster, sizes, dst="n1"):
    api = cluster.api("n0")
    flow = api.open_flow(dst)
    return [api.send(flow, size) for size in sizes]


def _sampled(cluster: Cluster, interval: float, **kwargs) -> list:
    """Start a sampler on ``cluster``; returns the list its ``obs.sample``
    events land in (the tick's one trace record)."""
    ticks: list = []
    cluster.sim.tracer.subscribe(
        lambda event: ticks.append(event) if event.kind == "obs.sample" else None
    )
    ObservabilitySampler(cluster, interval, **kwargs)
    return ticks


class TestAgainstRecount:
    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(16, 2048), min_size=1, max_size=12),
        interval_us=st.floats(5.0, 50.0),
    )
    def test_sampled_backlog_matches_live_totals(self, sizes, interval_us):
        """Every emitted tick's backlog equals the engines' own O(1)
        counters at that instant, and the queues breakdown sums to the
        backlog."""
        cluster = Cluster(seed=1)
        checked = []

        def recount(event):
            if event.kind != "obs.sample":
                return
            tick = event.detail
            engines = cluster.engines.values()
            checked.append(
                (
                    tick["backlog"] == sum(e.waiting.total_pending for e in engines),
                    tick["backlog_bytes"]
                    == sum(e.waiting.total_pending_bytes for e in engines),
                    sum(d for d, _ in tick["queues"].values()) == tick["backlog"],
                    sum(b for _, b in tick["queues"].values()) == tick["backlog_bytes"],
                )
            )

        cluster.sim.tracer.subscribe(recount)
        registry = MetricsRegistry()
        ObservabilitySampler(cluster, interval_us * 1e-6, registry=registry)
        messages = _drive(cluster, sizes)
        cluster.run_until_idle()
        assert all(m.completion.done for m in messages)
        assert checked, "the sampler never ticked"
        assert all(all(row) for row in checked)
        assert registry.get("repro_samples_total").value == len(checked)

    def test_final_sample_sees_drained_cluster(self):
        cluster = Cluster(seed=1)
        ticks = _sampled(cluster, 1e-5)
        _drive(cluster, [256] * 4)
        cluster.run_until_idle()
        assert ticks[-1].detail["backlog"] == 0
        assert ticks[-1].detail["completed"] == 4

    def test_busy_fraction_bounded_and_nonzero_under_load(self):
        cluster = Cluster(seed=1)
        ticks = _sampled(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        fractions = [f for t in ticks for f in t.detail["nic_busy"].values()]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert max(fractions) > 0.0


class TestCadence:
    def test_samples_are_one_interval_apart(self):
        cluster = Cluster(seed=1)
        ticks = _sampled(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        times = [t.time for t in ticks]
        assert len(times) >= 5
        assert all(abs(b - a - 1e-5) < 1e-12 for a, b in zip(times, times[1:]))

    def test_messages_completed_monotone(self):
        cluster = Cluster(seed=1)
        ticks = _sampled(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        completed = [t.detail["completed"] for t in ticks]
        assert all(b >= a for a, b in zip(completed, completed[1:]))
        assert completed[-1] == 16


class TestValidation:
    def test_interval_positive(self):
        with pytest.raises(ConfigurationError):
            ObservabilitySampler(Cluster(), 0.0)


class TestRegistryUpdates:
    def test_gauges_hold_last_sample(self):
        registry = MetricsRegistry()
        cluster = Cluster(seed=1)
        ticks = _sampled(cluster, 1e-5, registry=registry)
        _drive(cluster, [256] * 4)
        cluster.run_until_idle()
        last = ticks[-1].detail
        backlog = registry.get("repro_backlog_entries")
        assert backlog is not None and backlog.value == last["backlog"] == 0
        for nic, fraction in last["nic_busy"].items():
            assert registry.get("repro_nic_busy_fraction", {"nic": nic}).value == fraction
        samples = registry.get("repro_samples_total")
        assert samples is not None and samples.value == len(ticks) >= 1
        # The distributions are the trace's (obs analyze), not the registry's.
        assert {metric.kind for metric in registry} == {"counter", "gauge"}

    def test_termination_under_run_until_idle(self):
        """The sampler must not keep an otherwise-drained sim alive."""
        cluster = Cluster(seed=1)
        ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [256])
        end = cluster.run_until_idle()
        assert end < 1.0  # finite: the sampler stopped rescheduling
