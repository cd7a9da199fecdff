"""Fault-injection tests: corrupted or misrouted wire traffic must be
rejected loudly, never silently absorbed."""

import pytest

from repro.madeleine.message import Flow, Message
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.runtime import Cluster
from repro.util.errors import ProtocolError
from repro.util.units import KiB


@pytest.fixture
def cluster():
    return Cluster(seed=9)


def fragment_for(src="n0", dst="n1"):
    flow = Flow(99, "evil", src, dst)  # an id no flow of the cluster has
    message = Message(flow, seq=0)
    fragment = message.add_fragment(1024)
    message.mark_flushed(0.0)
    return fragment


class TestWireFaults:
    def test_replayed_packet_rejected(self, cluster):
        """Delivering the same slice twice is a protocol violation."""
        fragment = fragment_for()
        packet = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 0, 1024),),
            packet_id=0,
        )
        receiver = cluster.fabric.node("n1").receiver
        receiver.deliver(packet)
        with pytest.raises(ProtocolError, match="replayed|duplicate"):
            receiver.deliver(packet)

    def test_overlapping_slices_rejected(self, cluster):
        fragment = fragment_for()
        receiver = cluster.fabric.node("n1").receiver
        receiver.deliver(
            WirePacket(
                PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 0, 600),),
                packet_id=0,
            )
        )
        with pytest.raises(ProtocolError):
            receiver.deliver(
                WirePacket(
                    PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 500, 200),),
                    packet_id=0,
                )
            )

    def test_slice_beyond_fragment_rejected(self, cluster):
        fragment = fragment_for()
        receiver = cluster.fabric.node("n1").receiver
        with pytest.raises(ProtocolError):
            receiver.deliver(
                WirePacket(
                    PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 512, 1024),),
                    packet_id=0,
                )
            )

    def test_misrouted_fragment_rejected(self, cluster):
        """A fragment whose flow terminates elsewhere must not be
        absorbed by this node's reassembler."""
        fragment = fragment_for(src="n1", dst="n0")  # terminates at n0, not n1
        receiver = cluster.fabric.node("n1").receiver
        with pytest.raises(ProtocolError):
            receiver.deliver(
                WirePacket(
                    PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 0, 1024),),
                    packet_id=0,
                )
            )

    def test_forged_rdv_ack_rejected(self, cluster):
        receiver = cluster.fabric.node("n0").receiver
        with pytest.raises(ProtocolError, match="unmatched"):
            receiver.deliver(
                WirePacket(PacketKind.RDV_ACK, "n1", "n0", 0, meta={"token": 10**9}, packet_id=0)
            )

    def test_garbage_payload_rejected(self, cluster):
        receiver = cluster.fabric.node("n1").receiver
        with pytest.raises(ProtocolError, match="non-fragment"):
            receiver.deliver(
                WirePacket(
                    PacketKind.EAGER, "n0", "n1", 0, (WireSegment(b"junk", 0, 4),),
                    packet_id=0,
                )
            )


class TestFaultsDoNotCorruptState:
    def test_traffic_continues_after_rejected_packet(self, cluster):
        """A rejected forged packet must not poison subsequent traffic."""
        receiver = cluster.fabric.node("n1").receiver
        fragment = fragment_for()
        packet = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment(fragment, 0, 1024),),
            packet_id=0,
        )
        receiver.deliver(packet)
        with pytest.raises(ProtocolError):
            receiver.deliver(packet)
        # Legitimate traffic still flows end to end.
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        messages = [api.send(flow, 2 * KiB) for _ in range(5)]
        cluster.run_until_idle()
        assert all(m.completion.done for m in messages)
