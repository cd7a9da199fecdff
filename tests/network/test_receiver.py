"""Tests for receiver-side demultiplexing."""

import pytest

from repro.network.receiver import Receiver
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator
from repro.util.errors import ProtocolError


def data_packet(dst="n0", channel=0, size=64):
    return WirePacket(
        PacketKind.EAGER, "src", dst, channel, (WireSegment("x", 0, size),), packet_id=0
    )


def control_packet(kind=PacketKind.RDV_REQ, dst="n0"):
    return WirePacket(kind, "src", dst, 0, meta={"token": 7}, packet_id=0)


class TestDataDemux:
    def test_routes_by_channel(self):
        r = Receiver(Simulator(), "n0")
        ch0, ch1 = [], []
        r.register_sink(0, ch0.append)
        r.register_sink(1, ch1.append)
        r.deliver(data_packet(channel=0))
        r.deliver(data_packet(channel=1))
        assert len(ch0) == 1 and len(ch1) == 1

    def test_default_sink_catches_unregistered(self):
        r = Receiver(Simulator(), "n0")
        fallback = []
        r.register_default_sink(fallback.append)
        r.deliver(data_packet(channel=42))
        assert len(fallback) == 1

    def test_no_sink_raises(self):
        r = Receiver(Simulator(), "n0")
        with pytest.raises(ProtocolError):
            r.deliver(data_packet())

    def test_duplicate_sink_rejected(self):
        r = Receiver(Simulator(), "n0")
        r.register_sink(0, lambda p: None)
        with pytest.raises(ProtocolError):
            r.register_sink(0, lambda p: None)

    def test_wrong_destination_rejected(self):
        r = Receiver(Simulator(), "n0")
        r.register_default_sink(lambda p: None)
        with pytest.raises(ProtocolError):
            r.deliver(data_packet(dst="other"))

    def test_counters(self):
        r = Receiver(Simulator(), "n0")
        r.register_default_sink(lambda p: None)
        r.deliver(data_packet(size=100))
        r.deliver(data_packet(size=50))
        assert r.packets_received == 2
        assert r.bytes_received == 150


class TestControlDispatch:
    def test_routes_by_kind(self):
        r = Receiver(Simulator(), "n0")
        reqs, acks = [], []
        r.register_control_handler(PacketKind.RDV_REQ, reqs.append)
        r.register_control_handler(PacketKind.RDV_ACK, acks.append)
        r.deliver(control_packet(PacketKind.RDV_REQ))
        r.deliver(control_packet(PacketKind.RDV_ACK))
        assert len(reqs) == 1 and len(acks) == 1

    def test_missing_handler_raises(self):
        r = Receiver(Simulator(), "n0")
        with pytest.raises(ProtocolError):
            r.deliver(control_packet())

    def test_duplicate_handler_rejected(self):
        r = Receiver(Simulator(), "n0")
        r.register_control_handler(PacketKind.RDV_REQ, lambda p: None)
        with pytest.raises(ProtocolError):
            r.register_control_handler(PacketKind.RDV_REQ, lambda p: None)

    def test_data_kind_as_handler_rejected(self):
        r = Receiver(Simulator(), "n0")
        with pytest.raises(ProtocolError):
            r.register_control_handler(PacketKind.EAGER, lambda p: None)


class TestGuard:
    """A guard (the reliability layer) intercepts between arrival and demux."""

    def test_guard_intercepts_delivery(self):
        r = Receiver(Simulator(), "n0")
        held, dispatched = [], []
        r.register_default_sink(dispatched.append)
        r.install_guard(held.append)
        r.deliver(data_packet())
        assert len(held) == 1 and dispatched == []

    def test_guard_can_forward_via_dispatch(self):
        r = Receiver(Simulator(), "n0")
        dispatched = []
        r.register_default_sink(dispatched.append)
        r.install_guard(r.dispatch)
        r.deliver(data_packet())
        assert len(dispatched) == 1
        assert r.packets_received == 1

    def test_second_guard_rejected(self):
        r = Receiver(Simulator(), "n0")
        r.install_guard(lambda p: None)
        with pytest.raises(ProtocolError):
            r.install_guard(lambda p: None)

    def test_guard_still_checks_destination(self):
        r = Receiver(Simulator(), "n0")
        r.install_guard(lambda p: None)
        with pytest.raises(ProtocolError):
            r.deliver(data_packet(dst="other"))


class TestDuplicateDeliveryWithoutGuard:
    """Without the reliability guard, replaying a packet into the
    reassembler is a protocol violation — exactly the failure mode the
    transport's dedup exists to prevent."""

    def test_replayed_packet_raises(self):
        from repro.madeleine.message import Flow, Message
        from repro.madeleine.rx import MessageReassembler

        sim = Simulator()
        reassembler = MessageReassembler(sim, "n0")
        r = Receiver(sim, "n0")
        r.register_default_sink(reassembler.sink)
        flow = Flow(0, "f", "src", "n0")
        message = Message(flow, seq=0)
        message.add_fragment(64)
        message.submit_time = 0.0
        fragment = message.fragments[0]
        packet = WirePacket(
            PacketKind.EAGER, "src", "n0", 0, (WireSegment(fragment, 0, 64),),
            packet_id=0,
        )
        r.deliver(packet)
        with pytest.raises(ProtocolError):
            r.deliver(packet)
