"""Tests for WeightedChannels and AdaptiveChannels (paper §2 dynamics)."""

import pytest

from repro.core.adaptive import AdaptiveChannels
from repro.core.channels import WeightedChannels
from repro.core.waiting import ChannelQueue
from repro.madeleine.message import Flow
from repro.network.virtual import ChannelPool, TrafficClass
from repro.runtime import Cluster, run_session
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us

from tests.core.helpers import data_entry


class TestWeightedChannels:
    def setup_policy(self):
        policy = WeightedChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        return policy, pool

    def test_initial_order_is_fair(self):
        policy, pool = self.setup_policy()
        queues = [ChannelQueue(c.channel_id) for c in pool.channels]
        ordered = policy.service_order(queues)
        assert len(ordered) == len(queues)

    def test_heavily_served_channel_deprioritized(self):
        policy, pool = self.setup_policy()
        bulk_id = pool.channel_for(TrafficClass.BULK).channel_id
        ctrl_id = pool.channel_for(TrafficClass.CONTROL).channel_id
        policy.note_dispatch(bulk_id, [(TrafficClass.BULK, 100_000)])
        queues = [ChannelQueue(bulk_id), ChannelQueue(ctrl_id)]
        ordered = policy.service_order(queues)
        assert ordered[0].channel_id == ctrl_id

    def test_weights_scale_service(self):
        """Control's weight 64 means 64x the bytes before losing its turn."""
        policy, pool = self.setup_policy()
        bulk_id = pool.channel_for(TrafficClass.BULK).channel_id
        ctrl_id = pool.channel_for(TrafficClass.CONTROL).channel_id
        policy.note_dispatch(ctrl_id, [(TrafficClass.CONTROL, 6000)])
        policy.note_dispatch(bulk_id, [(TrafficClass.BULK, 1000)])
        queues = [ChannelQueue(bulk_id), ChannelQueue(ctrl_id)]
        # control served 6000/64 < bulk 1000/1 -> control still first
        assert policy.service_order(queues)[0].channel_id == ctrl_id

    def test_invalid_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedChannels(weights={TrafficClass.BULK: 0.0})

    def test_end_to_end(self):
        cluster = Cluster(policy=WeightedChannels, seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        msgs = [api.send(flow, 4 * KiB) for _ in range(10)]
        cluster.run_until_idle()
        assert all(m.completion.done for m in msgs)


class TestAdaptiveChannels:
    def test_starts_with_single_shared_channel(self):
        policy = AdaptiveChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        assert len(pool) == 1
        assert policy.channels_in_use == 1
        flow = Flow(0, "f", "n0", "n1", TrafficClass.BULK)
        entry = data_entry(flow, 100)
        assert policy.channel_for_entry(entry) == pool.channels[0].channel_id

    def test_promotion_on_volume(self):
        policy = AdaptiveChannels(promote_bytes=10 * KiB, window_dispatches=4)
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        shared = pool.channels[0].channel_id
        for _ in range(4):
            policy.note_dispatch(shared, [(TrafficClass.BULK, 8 * KiB)])
        assert TrafficClass.BULK in policy.dedicated_classes
        assert ("promote", TrafficClass.BULK) in policy.adaptations
        flow = Flow(0, "f", "n0", "n1", TrafficClass.BULK)
        assert policy.channel_for_entry(data_entry(flow, 1)) != shared

    def test_demotion_after_idle_windows(self):
        policy = AdaptiveChannels(
            promote_bytes=1 * KiB, window_dispatches=2, demote_after_windows=2
        )
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        shared = pool.channels[0].channel_id
        policy.note_dispatch(shared, [(TrafficClass.BULK, 2 * KiB)])
        policy.note_dispatch(shared, [(TrafficClass.BULK, 2 * KiB)])
        assert TrafficClass.BULK in policy.dedicated_classes
        # Four dispatches with no bulk traffic -> two idle windows.
        for _ in range(4):
            policy.note_dispatch(shared, [(TrafficClass.CONTROL, 32)])
        assert TrafficClass.BULK not in policy.dedicated_classes
        assert ("demote", TrafficClass.BULK) in policy.adaptations

    def test_channel_reuse_after_demotion(self):
        policy = AdaptiveChannels(
            promote_bytes=1 * KiB, window_dispatches=1, demote_after_windows=1
        )
        pool = ChannelPool()
        policy.setup(pool, max_channels=2)  # shared + one dynamic
        shared = pool.channels[0].channel_id
        policy.note_dispatch(shared, [(TrafficClass.BULK, 2 * KiB)])
        assert TrafficClass.BULK in policy.dedicated_classes
        policy.note_dispatch(shared, [(TrafficClass.CONTROL, 32)])
        assert TrafficClass.BULK not in policy.dedicated_classes
        # Promote a different class: must reuse the freed channel, not
        # allocate beyond max_channels.
        policy.note_dispatch(shared, [(TrafficClass.PUTGET, 2 * KiB)])
        assert TrafficClass.PUTGET in policy.dedicated_classes
        assert len(pool) <= 2

    def test_promoted_default_outranks_shared_channel(self):
        """Regression: a promoted DEFAULT channel used to get service
        rank 2 — the same rank as the shared channel — so the tie fell
        through to channel-id order and the (older, lower-id) shared
        channel was serviced ahead of the dedicated class that had just
        earned its promotion.  Dedicated DEFAULT must rank strictly
        after the shared channel never ties with anything."""
        policy = AdaptiveChannels(promote_bytes=1 * KiB, window_dispatches=1)
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        shared = pool.channels[0].channel_id
        policy.note_dispatch(shared, [(TrafficClass.DEFAULT, 2 * KiB)])
        assert TrafficClass.DEFAULT in policy.dedicated_classes
        default_id = pool.channel_for(TrafficClass.DEFAULT).channel_id

        queues = [ChannelQueue(default_id), ChannelQueue(shared)]
        ordered = policy.service_order(queues)
        # Shared (mixed, latency-sensitive remainder) before dedicated
        # DEFAULT — and unambiguously so, whichever order the queues
        # arrive in.
        assert [q.channel_id for q in ordered] == [shared, default_id]
        reordered = policy.service_order(list(reversed(queues)))
        assert [q.channel_id for q in reordered] == [shared, default_id]

    def test_service_order_ranks_are_total(self):
        """With every class promoted, the five channels order CONTROL,
        PUTGET, shared, DEFAULT, BULK with no rank collisions."""
        policy = AdaptiveChannels(promote_bytes=1 * KiB, window_dispatches=1)
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        shared = pool.channels[0].channel_id
        for traffic_class in (
            TrafficClass.BULK,
            TrafficClass.DEFAULT,
            TrafficClass.PUTGET,
            TrafficClass.CONTROL,
        ):
            policy.note_dispatch(shared, [(traffic_class, 2 * KiB)])
        assert len(policy.dedicated_classes) == 4
        ids = {
            traffic_class: pool.channel_for(traffic_class).channel_id
            for traffic_class in policy.dedicated_classes
        }
        queues = [ChannelQueue(c.channel_id) for c in pool.channels]
        ordered = [q.channel_id for q in policy.service_order(queues)]
        assert ordered == [
            ids[TrafficClass.CONTROL],
            ids[TrafficClass.PUTGET],
            shared,
            ids[TrafficClass.DEFAULT],
            ids[TrafficClass.BULK],
        ]

    def test_service_order_follows_a_promote_demote_cycle(self):
        """The channel → rank table is rebuilt when the assignment
        changes, not per call: the order must track a promotion, the
        demotion that frees the channel, and its reuse by another class."""
        policy = AdaptiveChannels(
            promote_bytes=1 * KiB, window_dispatches=1, demote_after_windows=1
        )
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        shared = pool.channels[0].channel_id

        def order(*channel_ids):
            queues = [ChannelQueue(channel_id) for channel_id in channel_ids]
            return [q.channel_id for q in policy.service_order(queues)]

        assert order(shared) == [shared]
        policy.note_dispatch(shared, [(TrafficClass.CONTROL, 2 * KiB)])
        first = pool.channel_for(TrafficClass.CONTROL).channel_id
        assert first != shared
        assert order(shared, first) == [first, shared]
        # One window without control traffic demotes it: the freed
        # channel keeps no rank and sorts last.
        policy.note_dispatch(shared, [(TrafficClass.DEFAULT, 32)])
        assert TrafficClass.CONTROL not in policy.dedicated_classes
        assert order(first, shared) == [shared, first]
        # BULK takes the freed channel over; CONTROL earns a new one.
        policy.note_dispatch(shared, [(TrafficClass.BULK, 2 * KiB)])
        assert pool.channel_for(TrafficClass.BULK).channel_id == first
        assert order(first, shared) == [shared, first]
        policy.note_dispatch(shared, [(TrafficClass.CONTROL, 2 * KiB), (TrafficClass.BULK, 1)])
        second = pool.channel_for(TrafficClass.CONTROL).channel_id
        assert second not in (shared, first)
        assert order(first, shared, second) == [second, shared, first]

    def test_respects_max_channels(self):
        policy = AdaptiveChannels(promote_bytes=1, window_dispatches=1)
        pool = ChannelPool()
        policy.setup(pool, max_channels=1)  # only the shared channel fits
        shared = pool.channels[0].channel_id
        policy.note_dispatch(shared, [(TrafficClass.BULK, 1 * KiB)])
        assert policy.dedicated_classes == frozenset()
        assert len(pool) == 1

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveChannels(promote_bytes=0)

    def test_end_to_end_adaptation(self):
        """Bulk traffic appears mid-run; the policy promotes it and
        control latency recovers."""
        from repro.middleware import ControlPlaneApp, StreamApp

        policy_holder = {}

        def policy_factory():
            policy = AdaptiveChannels(promote_bytes=32 * KiB, window_dispatches=8)
            policy_holder.setdefault("n0", policy)
            return policy

        cluster = Cluster(policy=policy_factory, seed=5)
        apps = [
            ControlPlaneApp(count=300, interval=3 * us, name="ctl"),
            StreamApp(
                size=16 * KiB,
                count=60,
                interval=2 * us,
                traffic_class=TrafficClass.BULK,
                name="bulk",
            ),
        ]
        run_session(cluster, [a.install for a in apps])
        policy = policy_holder["n0"]
        assert ("promote", TrafficClass.BULK) in policy.adaptations
