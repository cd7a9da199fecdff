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


class TestAgainstRecount:
    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(16, 2048), min_size=1, max_size=12),
        interval_us=st.floats(5.0, 50.0),
    )
    def test_sampled_backlog_matches_live_totals(self, sizes, interval_us):
        """Every sample's backlog equals the engines' own O(1) counters,
        and the queues breakdown sums to the backlog."""
        cluster = Cluster(seed=1)
        checked = []

        class CheckingSampler(ObservabilitySampler):
            def _snapshot(self, now):
                sample = super()._snapshot(now)
                live_entries = sum(
                    e.waiting.total_pending for e in cluster.engines.values()
                )
                live_bytes = sum(
                    e.waiting.total_pending_bytes for e in cluster.engines.values()
                )
                checked.append(
                    (
                        sample.backlog == live_entries,
                        sample.backlog_bytes == live_bytes,
                        sum(d for d, _ in sample.queues.values()) == sample.backlog,
                        sum(b for _, b in sample.queues.values())
                        == sample.backlog_bytes,
                    )
                )
                return sample

        sampler = CheckingSampler(cluster, interval_us * 1e-6)
        messages = _drive(cluster, sizes)
        cluster.run_until_idle()
        assert all(m.completion.done for m in messages)
        assert checked, "the sampler never ticked"
        assert all(all(row) for row in checked)
        assert len(sampler.samples) == len(checked)

    def test_final_sample_sees_drained_cluster(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [256] * 4)
        cluster.run_until_idle()
        assert sampler.samples[-1].backlog == 0
        assert sampler.samples[-1].messages_completed == 4

    def test_busy_fraction_bounded_and_nonzero_under_load(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        fractions = [
            f for s in sampler.samples for f in s.nic_busy.values()
        ]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert max(fractions) > 0.0

    def test_series_accessor(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [256])
        cluster.run_until_idle()
        assert sampler.series("backlog") == [s.backlog for s in sampler.samples]
        assert sampler.times == [s.time for s in sampler.samples]


class TestCadence:
    def test_samples_are_one_interval_apart(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        times = sampler.times
        assert len(times) >= 5
        assert all(abs(b - a - 1e-5) < 1e-12 for a, b in zip(times, times[1:]))

    def test_horizon_bounds_sampling(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5, horizon=3e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        assert sampler.samples
        assert all(s.time <= 3e-5 for s in sampler.samples)

    def test_messages_completed_monotone(self):
        cluster = Cluster(seed=1)
        sampler = ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [4096] * 16)
        cluster.run_until_idle()
        completed = sampler.series("messages_completed")
        assert all(b >= a for a, b in zip(completed, completed[1:]))
        assert completed[-1] == 16


class TestValidation:
    def test_interval_positive(self):
        with pytest.raises(ConfigurationError):
            ObservabilitySampler(Cluster(), 0.0)

    def test_horizon_positive(self):
        with pytest.raises(ConfigurationError):
            ObservabilitySampler(Cluster(), 1e-6, horizon=-1.0)

    def test_unknown_field(self):
        sampler = ObservabilitySampler(Cluster(), 1e-6, horizon=1e-5)
        sampler.sample_once()
        with pytest.raises(ConfigurationError):
            sampler.series("bogus")


class TestRegistryUpdates:
    def test_gauges_hold_last_sample(self):
        registry = MetricsRegistry()
        cluster = Cluster(seed=1)
        ObservabilitySampler(cluster, 1e-5, registry=registry)
        _drive(cluster, [256] * 4)
        cluster.run_until_idle()
        backlog = registry.get("repro_backlog_entries")
        assert backlog is not None and backlog.value == 0
        samples = registry.get("repro_samples_total")
        assert samples is not None and samples.value >= 1
        hist = registry.get("repro_queue_depth_hist")
        assert hist is not None and hist.count > 0

    def test_termination_under_run_until_idle(self):
        """The sampler must not keep an otherwise-drained sim alive."""
        cluster = Cluster(seed=1)
        ObservabilitySampler(cluster, 1e-5)
        _drive(cluster, [256])
        end = cluster.run_until_idle()
        assert end < 1.0  # finite: the sampler stopped rescheduling
