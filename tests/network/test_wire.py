"""Tests for wire packets and segments."""

import pytest

from repro.network.wire import (
    HEADER_BYTES_PER_SEGMENT,
    PACKET_HEADER_BYTES,
    PacketKind,
    WirePacket,
    WireSegment,
)
from repro.runtime.cluster import Cluster
from repro.util.errors import ProtocolError


class TestWireSegment:
    def test_fields(self):
        seg = WireSegment(payload="p", offset=10, length=20)
        assert seg.offset == 10 and seg.length == 20

    def test_negative_offset_rejected(self):
        with pytest.raises(ProtocolError):
            WireSegment(payload=None, offset=-1, length=5)

    def test_negative_length_rejected(self):
        with pytest.raises(ProtocolError):
            WireSegment(payload=None, offset=0, length=-5)


class TestWirePacket:
    def test_sizes(self):
        segs = (
            WireSegment("a", 0, 100),
            WireSegment("b", 0, 200),
        )
        pkt = WirePacket(PacketKind.EAGER, "n0", "n1", 0, segs, packet_id=0)
        assert pkt.payload_bytes == 300
        assert pkt.wire_bytes == PACKET_HEADER_BYTES + 2 * HEADER_BYTES_PER_SEGMENT + 300
        assert pkt.segment_count == 2

    def test_control_packet_without_segments(self):
        pkt = WirePacket(PacketKind.RDV_REQ, "n0", "n1", 0, meta={"token": 1}, packet_id=0)
        assert pkt.payload_bytes == 0
        assert pkt.wire_bytes == PACKET_HEADER_BYTES

    def test_data_packet_requires_segments(self):
        with pytest.raises(ProtocolError):
            WirePacket(PacketKind.EAGER, "n0", "n1", 0, packet_id=0)
        with pytest.raises(ProtocolError):
            WirePacket(PacketKind.RDV_DATA, "n0", "n1", 0, packet_id=0)

    def test_self_addressed_rejected(self):
        with pytest.raises(ProtocolError):
            WirePacket(PacketKind.CTRL, "n0", "n0", 0, packet_id=0)

    def test_packet_ids_unique(self):
        """The run counts its packets: unique within a cluster, and every
        cluster starts at packet 0 whatever the process did before."""

        def dispatched():
            cluster = Cluster(observability={"trace": True})
            api = cluster.api("n0")
            flow = api.open_flow("n1")
            for _ in range(4):
                api.send(flow, 64)
                cluster.run_until_idle()
            return [
                event.detail["packet"]
                for event in cluster.obs.sink.events
                if event.kind == "engine.dispatch"
            ]

        first, second = dispatched(), dispatched()
        assert first == second == list(range(len(first)))
        assert len(first) > 1


class TestPacketKind:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (PacketKind.EAGER, False),
            (PacketKind.RDV_DATA, False),
            (PacketKind.RDV_REQ, True),
            (PacketKind.RDV_ACK, True),
            (PacketKind.CTRL, True),
        ],
    )
    def test_is_control(self, kind, expected):
        assert kind.is_control is expected
