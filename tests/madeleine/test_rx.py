"""Tests for receiver-side message reassembly, including property tests
that the reassembler is correct under arbitrary legal slicing/reordering
(everything the optimizer may do on the send side)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.madeleine.message import Flow, Message
from repro.madeleine.rx import MessageReassembler
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator
from repro.util.errors import ProtocolError


def make_message(sizes, dst="n1", seq=0):
    flow = Flow(0, "f", "n0", dst)
    message = Message(flow, seq=seq)
    for i, size in enumerate(sizes):
        message.add_fragment(size, express=(i == 0))
    return message


def packet_of(fragment_slices, dst="n1"):
    segs = tuple(WireSegment(f, off, ln) for f, off, ln in fragment_slices)
    return WirePacket(PacketKind.EAGER, "n0", dst, 0, segs, packet_id=0)


@pytest.fixture
def reassembler():
    return MessageReassembler(Simulator(), "n1")


class TestBasicReassembly:
    def test_single_packet_completes_message(self, reassembler):
        m = make_message([100])
        f = m.fragments[0]
        reassembler.sink(packet_of([(f, 0, 100)]))
        assert m.completion.done
        assert reassembler.messages_completed == 1
        assert reassembler.incomplete_messages == 0

    def test_multi_fragment_message(self, reassembler):
        m = make_message([16, 1024])
        h, d = m.fragments
        reassembler.sink(packet_of([(h, 0, 16)]))
        assert not m.completion.done
        assert reassembler.incomplete_messages == 1
        reassembler.sink(packet_of([(d, 0, 1024)]))
        assert m.completion.done

    def test_aggregated_packet_with_two_messages(self, reassembler):
        m1, m2 = make_message([64]), make_message([64], seq=1)
        reassembler.sink(
            packet_of([(m1.fragments[0], 0, 64), (m2.fragments[0], 0, 64)])
        )
        assert m1.completion.done and m2.completion.done

    def test_striped_fragment_out_of_order(self, reassembler):
        m = make_message([1000])
        f = m.fragments[0]
        reassembler.sink(packet_of([(f, 600, 400)]))
        assert not m.completion.done
        reassembler.sink(packet_of([(f, 0, 600)]))
        assert m.completion.done

    def test_completion_value_is_time(self):
        sim = Simulator()
        r = MessageReassembler(sim, "n1")
        m = make_message([10])
        sim.schedule(5.0, lambda: r.sink(packet_of([(m.fragments[0], 0, 10)])))
        sim.run()
        assert m.completion.value == 5.0


class TestSafety:
    def test_duplicate_slice_rejected(self, reassembler):
        m = make_message([100])
        f = m.fragments[0]
        reassembler.sink(packet_of([(f, 0, 60)]))
        with pytest.raises(ProtocolError):
            reassembler.sink(packet_of([(f, 50, 50)]))

    def test_out_of_bounds_slice_rejected(self, reassembler):
        m = make_message([100])
        f = m.fragments[0]
        with pytest.raises(ProtocolError):
            reassembler.sink(packet_of([(f, 50, 60)]))

    def test_wrong_node_rejected(self, reassembler):
        m = make_message([100], dst="other")
        with pytest.raises(ProtocolError):
            reassembler.sink(packet_of([(m.fragments[0], 0, 100)], dst="n1"))

    def test_non_fragment_payload_rejected(self, reassembler):
        pkt = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment("junk", 0, 10),), packet_id=0
        )
        with pytest.raises(ProtocolError):
            reassembler.sink(pkt)


class TestNotifications:
    def test_flow_subscription(self, reassembler):
        m = make_message([50])
        seen = []
        reassembler.subscribe(m.flow, lambda msg, t: seen.append((msg, t)))
        reassembler.sink(packet_of([(m.fragments[0], 0, 50)]))
        assert seen == [(m, 0.0)]

    def test_express_callback_before_body(self, reassembler):
        m = make_message([16, 1024])
        events = []
        reassembler.subscribe_express(m.flow, lambda frag, t: events.append("express"))
        reassembler.subscribe(m.flow, lambda msg, t: events.append("complete"))
        reassembler.sink(packet_of([(m.fragments[0], 0, 16)]))
        assert events == ["express"]
        reassembler.sink(packet_of([(m.fragments[1], 0, 1024)]))
        assert events == ["express", "complete"]

    def test_inbox_receives_completed_messages(self):
        sim = Simulator()
        r = MessageReassembler(sim, "n1")
        m = make_message([20])
        inbox = r.inbox(m.flow)
        assert len(inbox) == 0
        r.sink(packet_of([(m.fragments[0], 0, 20)]))
        assert len(inbox) == 1
        assert inbox.get().value is m

    def test_global_hook(self, reassembler):
        seen = []
        reassembler.on_message_complete = lambda msg, t: seen.append(msg)
        m = make_message([10])
        reassembler.sink(packet_of([(m.fragments[0], 0, 10)]))
        assert seen == [m]


@st.composite
def sliced_message(draw):
    """A message plus a random legal slicing of its fragments into packets."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=6))
    message = make_message(sizes)
    slices = []
    for fragment in message.fragments:
        offset = 0
        while offset < fragment.size:
            length = draw(st.integers(min_value=1, max_value=fragment.size - offset))
            slices.append((fragment, offset, length))
            offset += length
    # random interleaving across fragments
    order = draw(st.permutations(range(len(slices))))
    return message, [slices[i] for i in order]


class TestReassemblyProperties:
    @settings(max_examples=60, deadline=None)
    @given(sliced_message())
    def test_any_legal_slicing_completes_exactly_once(self, case):
        message, slices = case
        r = MessageReassembler(Simulator(), "n1")
        completions = []
        r.subscribe(message.flow, lambda m, t: completions.append(m))
        for fragment, offset, length in slices:
            r.sink(packet_of([(fragment, offset, length)]))
        assert message.completion.done
        assert completions == [message]
        assert r.incomplete_messages == 0

    @settings(max_examples=30, deadline=None)
    @given(sliced_message())
    def test_incomplete_until_last_slice(self, case):
        message, slices = case
        r = MessageReassembler(Simulator(), "n1")
        for fragment, offset, length in slices[:-1]:
            r.sink(packet_of([(fragment, offset, length)]))
        assert not message.completion.done
        fragment, offset, length = slices[-1]
        r.sink(packet_of([(fragment, offset, length)]))
        assert message.completion.done
