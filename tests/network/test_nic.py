"""Tests for the NIC busy/idle state machine — the paper's trigger point."""

import pytest

from repro.network.nic import NIC
from repro.network.technologies import myrinet_mx
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.obs.recorder import ListSink
from repro.sim import Simulator
from repro.util.errors import SimulationError


def make_nic(sim, deliveries=None):
    deliveries = deliveries if deliveries is not None else []

    def deliver(packet, occupancy):
        deliveries.append((sim.now, packet))

    return NIC(sim, "nic0", "n0", myrinet_mx(), deliver), deliveries


def packet(size=100):
    return WirePacket(
        PacketKind.EAGER, "n0", "n1", 0, (WireSegment("payload", 0, size),), packet_id=0
    )


class TestStateMachine:
    def test_starts_idle(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        assert nic.idle

    def test_busy_during_transfer(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        assert not nic.idle
        sim.run()
        assert nic.idle

    def test_submit_while_busy_rejected(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        with pytest.raises(SimulationError):
            nic.submit(packet(), occupancy=1e-6, one_way=2e-6)

    def test_wrong_source_rejected(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        foreign = WirePacket(
            PacketKind.EAGER, "other", "n1", 0, (WireSegment("p", 0, 10),), packet_id=0
        )
        with pytest.raises(SimulationError):
            nic.submit(foreign, occupancy=1e-6, one_way=2e-6)

    def test_inconsistent_timings_rejected(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        with pytest.raises(SimulationError):
            nic.submit(packet(), occupancy=0.0, one_way=1e-6)
        with pytest.raises(SimulationError):
            nic.submit(packet(), occupancy=2e-6, one_way=1e-6)

    def test_delivery_at_one_way_time(self):
        sim = Simulator()
        nic, deliveries = make_nic(sim)
        nic.submit(packet(), occupancy=1e-6, one_way=3e-6)
        sim.run()
        assert len(deliveries) == 1
        assert deliveries[0][0] == pytest.approx(3e-6)


class TestIdleCallbacks:
    def test_fires_at_idle_transition(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        idle_times = []
        nic.on_idle(lambda n: idle_times.append(sim.now))
        nic.submit(packet(), occupancy=5e-6, one_way=6e-6)
        sim.run()
        assert idle_times == [pytest.approx(5e-6)]

    def test_subscriber_can_refill_nic(self):
        """The optimizer pattern: the idle callback submits the next packet."""
        sim = Simulator()
        nic, deliveries = make_nic(sim)
        backlog = [packet(), packet()]

        def refill(n):
            if backlog:
                n.submit(backlog.pop(0), occupancy=1e-6, one_way=2e-6)

        nic.on_idle(refill)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        sim.run()
        assert len(deliveries) == 3
        assert not backlog

    def test_later_subscribers_skipped_after_refill(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        calls = []

        def first(n):
            calls.append("first")
            n.submit(packet(), occupancy=1e-6, one_way=2e-6)

        def second(n):
            calls.append("second")

        nic.on_idle(first)
        nic.on_idle(second)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        sim.run(until=1.5e-6)
        assert calls == ["first"]  # second not told about a busy NIC


class TestStats:
    def test_counters(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic.submit(packet(100), occupancy=1e-6, one_way=2e-6)
        sim.run()
        nic.submit(packet(200), occupancy=2e-6, one_way=3e-6)
        sim.run()
        assert nic.stats.requests == 2
        assert nic.stats.payload_bytes == 300
        assert nic.stats.busy_time == pytest.approx(3e-6)
        assert nic.stats.kind_counts == {"eager": 2}

    def test_utilization(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        sim.run()
        assert nic.stats.utilization(elapsed=4e-6) == pytest.approx(0.25)
        assert nic.stats.utilization(elapsed=0.0) == 0.0


class TestReaches:
    def test_permissive_without_network(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        assert nic.reaches("anything")


class TestTracing:
    def test_send_and_idle_events(self):
        sim = Simulator()
        recorded = ListSink()
        sim.tracer.subscribe(recorded)
        nic, _ = make_nic(sim)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        sim.run()
        kinds = [e.kind for e in recorded.events]
        assert kinds.count("nic.send") == 1
        assert kinds.count("nic.idle") == 1
