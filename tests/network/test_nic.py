"""Tests for the NIC busy/idle state machine — the paper's trigger point.

Both NIC types: the simulated :class:`NIC` (busy for a modeled
occupancy) and the live plane's :class:`LiveNIC` (busy until a socket
write drains — here a fake ``send`` that hands the drain callback to
the test, on a :class:`LiveClock` whose loop never has to run).
"""

import asyncio
import time

import pytest

from repro.live.loop import LiveClock
from repro.live.nic import LiveNIC
from repro.madeleine.message import Flow, Message
from repro.network.nic import NIC, SERVICE_WINDOW
from repro.network.technologies import myrinet_mx
from repro.network.wire import PacketKind, WirePacket, WireSegment, decode_frame
from repro.obs.analyze import analyze_events
from repro.obs.recorder import ListSink
from repro.runtime.cluster import Cluster
from repro.sim import Simulator
from repro.util.errors import ProtocolError, SimulationError
from repro.util.units import KiB, us


def make_nic(sim, deliveries=None):
    deliveries = deliveries if deliveries is not None else []

    def deliver(packet, occupancy):
        deliveries.append((sim.now, packet))

    return NIC(sim, "nic0", "n0", myrinet_mx(), deliver), deliveries


def make_live_nic(loop):
    """A LiveNIC plus the ``(packet, frame, on_drained)`` triples it sent."""
    sent = []
    clock = LiveClock(loop, epoch=time.time())
    nic = LiveNIC(clock, "nic0", "n0", myrinet_mx(), lambda *call: sent.append(call))
    return nic, sent


@pytest.fixture
def live():
    loop = asyncio.new_event_loop()
    yield make_live_nic(loop)
    loop.close()


@pytest.fixture
def both_nics(live):
    """One idle NIC of each type.  Admission (``NIC._admit``) is shared,
    so every rejection must hold for both — looped rather than
    parametrised to keep these tests' ids."""
    return make_nic(Simulator())[0], live[0]


def packet(size=100, src="n0"):
    """One eager packet carrying a real fragment (so it also encodes)."""
    message = Message(Flow(0, "t-nic", src, "n1"), seq=0)
    fragment = message.add_fragment(size)
    message.mark_flushed(0.0)
    return WirePacket(
        PacketKind.EAGER, src, "n1", 0, (WireSegment(fragment, 0, size),), packet_id=0
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

    def test_submit_while_busy_rejected(self, both_nics):
        for nic in both_nics:
            nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
            with pytest.raises(SimulationError, match="busy"):
                nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
            assert nic.stats.requests == 1

    def test_wrong_source_rejected(self, both_nics):
        for nic in both_nics:
            with pytest.raises(SimulationError, match="other"):
                nic.submit(packet(src="other"), occupancy=1e-6, one_way=2e-6)
            assert nic.idle and nic.stats.requests == 0

    def test_inconsistent_timings_rejected(self, both_nics):
        for nic in both_nics:
            with pytest.raises(SimulationError):
                nic.submit(packet(), occupancy=0.0, one_way=1e-6)
            with pytest.raises(SimulationError):
                nic.submit(packet(), occupancy=2e-6, one_way=1e-6)
            assert nic.idle and nic.stats.requests == 0

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


class TestLiveNIC:
    """What differs from the simulated NIC: busy ends at the drain."""

    def test_drain_goes_idle_and_notifies_with_refill_break(self, live):
        nic, sent = live
        recorded = ListSink()
        nic._sim.tracer.subscribe(recorded)
        calls = []

        def first(n):
            calls.append("first")
            n.submit(packet(200), occupancy=1e-6, one_way=2e-6)

        nic.on_idle(first)
        nic.on_idle(lambda n: calls.append("second"))
        original = packet(100)
        nic.submit(original, occupancy=1e-6, one_way=2e-6)
        (sent_packet, frame, on_drained), = sent
        assert sent_packet is original and not nic.idle and calls == []
        # What went to the hub is the bare wire-codec frame of the packet.
        assert decode_frame(frame).segments[0].length == 100
        on_drained()  # the kernel accepted every byte
        assert calls == ["first"]  # second not told about a refilled NIC
        assert len(sent) == 2 and not nic.idle and nic.drains == 1
        kinds = [e.kind for e in recorded.events]
        assert kinds == ["nic.send", "nic.idle", "nic.send"]
        assert recorded.events[0].detail["live_bytes"] == len(frame)

    def test_fail_mid_transfer_suppresses_the_idle(self, live):
        nic, sent = live
        idles = []
        nic.on_idle(idles.append)
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        nic.fail()  # outage while the write is in the socket
        sent[0][2]()
        assert idles == [] and not nic.idle and nic.drains == 1
        with pytest.raises(SimulationError, match="failed"):
            nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        nic.recover()
        assert nic.idle

    def test_encode_error_leaves_the_nic_idle_and_uncounted(self, live):
        nic, sent = live
        unserializable = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment("not a fragment", 0, 4),),
            packet_id=0,
        )
        with pytest.raises(ProtocolError):
            nic.submit(unserializable, occupancy=1e-6, one_way=2e-6)
        assert nic.idle and sent == []
        assert nic.stats.requests == 0 and nic.stats.kind_counts == {}
        assert nic.modeled_busy_time == 0.0
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)  # still usable
        assert len(sent) == 1

    def test_busy_time_is_measured_modeled_time_kept_apart(self, live):
        nic, sent = live
        nic.submit(packet(100), occupancy=5.0, one_way=6.0, host_time=0.25)
        time.sleep(0.002)
        sent[0][2]()
        assert nic.modeled_busy_time == 5.0  # what the driver's model said
        assert 0.002 <= nic.stats.busy_time < 1.0  # what the wall clock said
        assert nic.stats.requests == 1 and nic.stats.payload_bytes == 100
        assert nic.stats.host_time == 0.25 and nic.stats.kind_counts == {"eager": 1}


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


class TestServiceWindow:
    """``NIC.service_us``: each send's span to the idle transition it
    ends, in microseconds, the last ``SERVICE_WINDOW`` of them."""

    def test_send_to_idle_is_one_span(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        sim.at(1.0, nic.submit, packet(), 2e-6, 3e-6)
        sim.run()
        assert list(nic.service_us) == [((1.0 + 2e-6) - 1.0) * 1e6]

    def test_window_keeps_the_latest_spans(self):
        sim = Simulator()
        nic, _ = make_nic(sim)

        def refill(idle_nic):
            if sim.now < 1.5e-3:
                idle_nic.submit(packet(), 1e-6, 2e-6)

        nic.on_idle(refill)
        refill(nic)
        sim.run()
        assert nic.stats.requests > SERVICE_WINDOW
        assert len(nic.service_us) == SERVICE_WINDOW

    @pytest.mark.parametrize("recover_before_completion", [False, True])
    def test_span_cut_by_an_outage_is_dropped(self, recover_before_completion):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic.submit(packet(), occupancy=10e-6, one_way=20e-6)
        sim.at(2e-6, nic.fail)
        sim.at(5e-6 if recover_before_completion else 50e-6, nic.recover)
        sim.run()
        assert list(nic.service_us) == []
        nic.submit(packet(), occupancy=1e-6, one_way=2e-6)
        sim.run()
        assert len(nic.service_us) == 1

    def test_outage_is_not_service_time(self):
        """Named regression: one MX rail down from 2 to 500 us under 40
        x 64 KiB sends.  A rail that fails mid-transfer emits no
        ``nic.idle``; the span it was serving once stretched over the
        whole outage (502.5 us against a largest occupancy of 268.4 us).
        No kept span, on the NIC or from the trace, exceeds the largest
        occupancy (up to 1 ns of clock arithmetic)."""
        cluster = Cluster(
            networks=[("mx", 1)],
            faults={"outages": [{"network": "mx0", "at": 2 * us, "recover": 500 * us}]},
            observability={},
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(40):
            api.send(flow, 64 * KiB)
        cluster.run_until_idle()
        assert cluster.report().messages == 40
        events = cluster.obs.events
        bound_us = max(e.detail["occupancy"] for e in events if e.kind == "nic.send") * 1e6
        nic = cluster.nodes[0].nics[0]
        traced_us = [s * 1e6 for s in analyze_events(events).rails[nic.name].latencies]
        assert nic.stats.failures == 1 and len(nic.service_us) > 40
        assert max(nic.service_us) <= bound_us + 1e-3
        assert max(traced_us) <= bound_us + 1e-3
