"""The hub's DONE batching, without sockets.

A :class:`~repro.live.hub.Hub` whose links carry a recording stand-in
for ``_Connection``: what it would write is what the tests read.
"""

import asyncio
import time

import pytest

from repro.live.chaos import ChaosConfig
from repro.live.hub import Hub
from repro.live.loop import LiveClock
from repro.live.transport import (
    TAG_RAW,
    TAG_SEQ,
    StreamDecoder,
    encode_live_packet,
    live_ctrl_kind,
    wrap_envelope,
)
from repro.madeleine.message import Flow
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.util.errors import ProtocolError, WireError

from tests.core.helpers import next_message


class _Conn:
    """Stands in for ``_Connection``: records every enqueued record."""

    failed = False

    def __init__(self, name):
        self.name = name
        self.written: list[bytes] = []

    def enqueue(self, data, on_drained, counted=True):
        self.written.append(data)

    def abort(self):
        self.failed = True

    def records(self, tag):
        """Decoded ``(seq, frame)`` of every written record of ``tag``."""
        wire = b"".join(r for r in self.written if r[4] == tag)
        return StreamDecoder().feed(wire)


def _data_records(flow, count, seq_from=None):
    """``count`` one-message data frames as a decoder would hand them over."""
    wire = b""
    ids = []
    for i in range(count):
        message = next_message(flow)
        fragment = message.add_fragment(64)
        message.mark_flushed(0.0)
        packet = WirePacket(
            kind=PacketKind.EAGER, src=flow.src, dst=flow.dst, channel_id=0,
            segments=(WireSegment(fragment, 0, 64),), packet_id=i,
        )
        seq = None if seq_from is None else seq_from + i
        wire += wrap_envelope(encode_live_packet(packet), seq)
        ids.append(message.message_id)
    return StreamDecoder().feed(wire), ids


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def _hub(loop, chaos=None, explode_on=None):
    """Rank 1 of three; every delivered data frame completes its message
    (what the peer's reassembler hook does), or raises on ``explode_on``."""
    clock = LiveClock(loop, epoch=time.time())
    delivered = []

    def deliver(frame):
        message_id = frame.segments[0].message_id
        if message_id == explode_on:
            raise WireError("payload mismatch (injected)")
        delivered.append(message_id)
        hub.send_done(frame.src, message_id, clock.now)

    hub = Hub(clock, "n1", 1, deliver, names=["n0", "n1", "n2"], chaos=chaos)
    conns = {}
    for name, link in hub.links.items():
        link.conn = conns[name] = _Conn(name)
        link.ever_connected = True
    return hub, conns, delivered


def _done_items(conn, tag=TAG_RAW):
    frames = [f for _, f in conn.records(tag) if live_ctrl_kind(f) == "done"]
    return [[mid for mid, _ in f.meta["items"]] for f in frames]


class TestDoneBatching:
    def test_one_done_record_per_chunk_in_completion_order(self, loop):
        hub, conns, delivered = _hub(loop)
        records, ids = _data_records(Flow(0, "s", "n0", "n1"), 5)
        hub.ingest(conns["n0"], records)
        assert delivered == ids
        assert _done_items(conns["n0"]) == [ids]
        assert len(conns["n0"].written) == 1 and conns["n2"].written == []
        assert (hub.done_sent, hub.done_frames_sent) == (5, 1)
        assert hub.done_by_dst == {"n0": 5}
        assert hub._done_batch == {}

    def test_counters_move_when_the_batch_is_sent(self, loop):
        hub, conns, _ = _hub(loop)
        hub._ingesting = True  # as inside ingest(), before its flush
        hub.send_done("n0", 1, 0.0)
        hub.send_done("n0", 2, 0.0)
        assert (hub.done_sent, hub.done_by_dst, conns["n0"].written) == (0, {}, [])
        hub._ingesting = False
        hub._flush_done()
        assert (hub.done_sent, hub.done_by_dst) == (2, {"n0": 2})
        assert _done_items(conns["n0"]) == [[1, 2]]

    def test_outside_ingest_a_done_is_sent_at_once(self, loop):
        """``install_apps`` replays parked frames outside any chunk."""
        hub, conns, _ = _hub(loop)
        hub.send_done("n0", 7, 0.5)
        assert _done_items(conns["n0"]) == [[7]]
        assert hub._done_batch == {}
        with pytest.raises(ProtocolError, match="unknown peer"):
            hub.send_done("n9", 8, 0.5)

    def test_one_frame_per_sender(self, loop):
        hub, conns, _ = _hub(loop)
        from_n0, ids0 = _data_records(Flow(0, "a", "n0", "n1"), 3)
        from_n2, ids2 = _data_records(Flow(1, "b", "n2", "n1"), 2)
        hub.ingest(conns["n0"], [from_n0[0], from_n2[0], from_n0[1], from_n2[1], from_n0[2]])
        assert _done_items(conns["n0"]) == [ids0]
        assert _done_items(conns["n2"]) == [ids2]
        assert hub.done_frames_sent == 2 and hub.done_sent == 5

    def test_destination_dead_before_the_flush_suppresses_the_batch(self, loop):
        hub, conns, _ = _hub(loop)
        records, _ = _data_records(Flow(0, "s", "n0", "n1"), 4)
        deliver = hub._deliver

        def deliver_then_die(frame):
            deliver(frame)
            if len(hub._done_batch["n0"]) == 4:
                hub.mark_dead("n0")

        hub._deliver = deliver_then_die
        hub.ingest(conns["n0"], records)
        assert hub.done_suppressed == 4
        assert (hub.done_sent, hub.done_frames_sent, hub.done_by_dst) == (0, 0, {})
        assert conns["n0"].written == [] and hub._done_batch == {}

    def test_a_raising_frame_still_flushes_what_completed(self, loop):
        flow = Flow(0, "s", "n0", "n1")
        records, ids = _data_records(flow, 4)
        hub, conns, delivered = _hub(loop, explode_on=ids[2])
        with pytest.raises(WireError, match="injected"):
            hub.ingest(conns["n0"], records)
        assert delivered == ids[:2]
        assert _done_items(conns["n0"]) == [ids[:2]]
        assert hub.done_sent == 2
        assert hub._done_batch == {} and hub._ingesting is False

    def test_a_reply_never_overtakes_the_done_of_its_request(self, loop):
        """A data frame produced while the chunk is still being ingested
        (the pong of a ping) goes out behind the DONEs gathered so far."""
        hub, conns, _ = _hub(loop)
        records, ids = _data_records(Flow(0, "ping", "n0", "n1"), 2)
        deliver = hub._deliver

        def deliver_and_reply(frame):
            deliver(frame)
            if frame is records[0][1]:
                message = next_message(Flow(1, "pong", "n1", "n0"))
                fragment = message.add_fragment(8)
                packet = WirePacket(
                    kind=PacketKind.EAGER, src="n1", dst="n0", channel_id=0,
                    segments=(WireSegment(fragment, 0, 8),), packet_id=9,
                )
                hub.send_packet(packet, encode_live_packet(packet), None)

        hub._deliver = deliver_and_reply
        hub.ingest(conns["n0"], records)
        kinds = [live_ctrl_kind(f) for _, f in conns["n0"].records(TAG_RAW)]
        assert kinds == ["done", None, "done"]
        assert _done_items(conns["n0"]) == [[ids[0]], [ids[1]]]


class TestDataBytes:
    def test_each_data_record_counts_with_its_envelope(self, loop):
        hub, conns, _ = _hub(loop)
        message = next_message(Flow(1, "out", "n1", "n0"))
        fragment = message.add_fragment(8)
        message.mark_flushed(0.0)
        packet = WirePacket(
            kind=PacketKind.EAGER, src="n1", dst="n0", channel_id=0,
            segments=(WireSegment(fragment, 0, 8),), packet_id=0,
        )
        frame = encode_live_packet(packet)
        hub.send_packet(packet, frame, None)
        hub.send_done("n0", 5, 0.0)  # a DONE record is not data
        assert conns["n0"].written[0] == wrap_envelope(frame)
        assert hub.data_bytes_sent == len(wrap_envelope(frame))


class TestDoneBatchingUnderFaults:
    def test_the_batch_is_one_sequenced_record_retransmitted_as_one(self, loop):
        chaos = ChaosConfig.from_spec(
            {"duplicate": 1e-12, "seed": 3, "reliability": {"rto": 0.01}},
            default_seed=0,
        )
        hub, conns, _ = _hub(loop, chaos=chaos)
        assert hub.reliable
        records, ids = _data_records(Flow(0, "s", "n0", "n1"), 6, seq_from=0)
        hub.ingest(conns["n0"], records)
        ((seq, frame),) = conns["n0"].records(TAG_SEQ)
        assert seq == 0 and live_ctrl_kind(frame) == "done"
        assert [mid for mid, _ in frame.meta["items"]] == ids
        acks = [f for _, f in conns["n0"].records(TAG_RAW)]
        assert [f.meta["seqs"] for f in acks] == [[0, 1, 2, 3, 4, 5]]
        assert hub.in_flight == 1 and hub.done_frames_sent == 1

        loop.run_until_complete(asyncio.sleep(0.03))  # past the 10 ms RTO
        resent = conns["n0"].records(TAG_SEQ)
        assert hub.stats.retransmits >= 1
        assert len(resent) == 1 + hub.stats.retransmits
        assert all(r == (0, frame) for r in resent)
        assert hub.done_sent == 6 and hub.done_frames_sent == 1
        hub.close()
