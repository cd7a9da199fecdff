"""Tests for channel assignment policies (pooled vs one-to-one)."""

import pytest

from repro.core.channels import OneToOneChannels, PooledChannels
from repro.core.waiting import ChannelQueue
from repro.madeleine.message import Flow
from repro.network.virtual import ChannelPool, TrafficClass
from repro.util.errors import ConfigurationError

from tests.core.helpers import control_entry, data_entry


class TestPooledChannels:
    def test_one_channel_per_class(self):
        policy = PooledChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        assert len(pool) == len(TrafficClass)

    def test_entries_routed_by_class(self):
        policy = PooledChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        bulk_flow = Flow(0, "b", "n0", "n1", TrafficClass.BULK)
        ctrl = control_entry("n1")
        bulk = data_entry(bulk_flow, 10)
        assert policy.channel_for_entry(bulk) != policy.channel_for_entry(ctrl)
        # Same class -> same channel.
        assert policy.channel_for_entry(bulk) == policy.channel_for_entry(
            data_entry(bulk_flow, 20)
        )

    def test_service_order_control_first_bulk_last(self):
        policy = PooledChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        ctrl_ch = policy.channel_for_entry(control_entry("n1"))
        bulk_ch = policy.channel_for_entry(
            data_entry(Flow(0, "b", "n0", "n1", TrafficClass.BULK), 10)
        )
        queues = [ChannelQueue(bulk_ch), ChannelQueue(ctrl_ch)]
        ordered = policy.service_order(queues)
        assert ordered[0].channel_id == ctrl_ch
        assert ordered[-1].channel_id == bulk_ch

    def test_single_channel_mode(self):
        policy = PooledChannels(by_class=False)
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        assert len(pool) == 1
        flows = [
            Flow(0, "a", "n0", "n1", TrafficClass.BULK),
            Flow(1, "b", "n0", "n1", TrafficClass.CONTROL),
        ]
        channels = {policy.channel_for_entry(data_entry(f, 10)) for f in flows}
        assert len(channels) == 1

    def test_too_few_channels_degrades_to_shared(self):
        policy = PooledChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=2)  # fewer than 4 classes
        assert len(pool) == 1

    def test_setup_required(self):
        policy = PooledChannels()
        with pytest.raises(ConfigurationError):
            policy.channel_for_entry(control_entry("n1"))

    def test_priority_validation(self):
        with pytest.raises(ConfigurationError):
            PooledChannels(priority=(TrafficClass.BULK,))


class TestOneToOneChannels:
    def test_each_flow_gets_own_channel(self):
        policy = OneToOneChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=8)
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n1")
        c1 = policy.channel_for_entry(data_entry(f1, 10))
        c2 = policy.channel_for_entry(data_entry(f2, 10))
        assert c1 != c2
        # Stable mapping.
        assert policy.channel_for_entry(data_entry(f1, 20)) == c1

    def test_wraps_beyond_max_channels(self):
        policy = OneToOneChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=2)
        flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(5)]
        channels = {policy.channel_for_entry(data_entry(f, 10)) for f in flows}
        assert len(channels) <= 2
        assert len(pool) == 2

    def test_control_entries_share_first_channel(self):
        policy = OneToOneChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=4)
        ch = policy.channel_for_entry(control_entry("n1"))
        assert ch == pool.channels[0].channel_id

    def test_service_order_rotates(self):
        policy = OneToOneChannels()
        pool = ChannelPool()
        policy.setup(pool, max_channels=4)
        queues = [ChannelQueue(i) for i in range(3)]
        first = [q.channel_id for q in policy.service_order(queues)]
        second = [q.channel_id for q in policy.service_order(queues)]
        assert sorted(first) == [0, 1, 2]
        assert first != second  # rotation

    def test_setup_required(self):
        with pytest.raises(ConfigurationError):
            OneToOneChannels().channel_for_entry(control_entry("n1"))
