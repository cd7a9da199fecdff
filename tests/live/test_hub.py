"""The hub's DONE batching and its connections' writes.

Most tests give a :class:`~repro.live.hub.Hub`'s links a recording
stand-in for ``_Connection``: what it would write is what they read.
``TestOneWritePerTurn`` runs the real ``_Connection`` protocol over a
stand-in transport; ``TestWritesPerMessage`` and
``TestTurnsPerRoundTrip`` run two hubs in one process over a Unix
socket, TCP, or an in-memory transport pair.
"""

import asyncio
import json
import time

import pytest

from repro.network import wire
from repro.network.faults import FaultConfig
from repro.live.hub import Hub, _Connection
from repro.live.loop import LiveClock
from repro.live.transport import (
    TAG_RAW,
    TAG_SEQ,
    StreamDecoder,
    done_items,
    encode_live_packet,
    hello_frame,
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


def _send_pong(hub, on_drained=None, packet_id=9):
    """The reply of a ping: one 8-byte message n1 → n0, through the NIC path."""
    message = next_message(Flow(1, "pong", "n1", "n0"))
    fragment = message.add_fragment(8)
    packet = WirePacket(
        kind=PacketKind.EAGER, src="n1", dst="n0", channel_id=0,
        segments=(WireSegment(fragment, 0, 8),), packet_id=packet_id,
    )
    hub.send_packet(packet, encode_live_packet(packet), on_drained)


def _done_items(conn, tag=TAG_RAW):
    frames = [f for _, f in conn.records(tag) if live_ctrl_kind(f) == "done"]
    return [[mid for mid, _ in done_items(f)] for f in frames]


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
                _send_pong(hub)

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
        chaos = FaultConfig.from_spec(
            {"duplicate": 1e-12, "seed": 3, "reliability": {"rto": 0.01}},
            default_seed=0,
        )
        hub, conns, _ = _hub(loop, chaos=chaos)
        assert hub.reliable
        records, ids = _data_records(Flow(0, "s", "n0", "n1"), 6, seq_from=0)
        hub.ingest(conns["n0"], records)
        ((seq, frame),) = conns["n0"].records(TAG_SEQ)
        assert seq == 0 and live_ctrl_kind(frame) == "done"
        assert [mid for mid, _ in done_items(frame)] == ids
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


class _Transport:
    """What ``_Connection`` uses of an asyncio transport.  A write is
    taken whole unless ``keep_next`` is set: then the kernel keeps that
    many bytes and the protocol is paused until :meth:`take`."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.writes: list[bytes] = []
        self.kept = 0
        self.keep_next = 0
        self.pauses = 0
        self.closed = False

    def set_write_buffer_limits(self, high):
        assert high == 0

    def is_closing(self):
        return self.closed

    def write(self, data):
        self.writes.append(bytes(data))
        self.kept, self.keep_next = self.keep_next, 0
        if self.kept:
            self.pauses += 1
            self.protocol.pause_writing()

    def take(self):
        """The kernel takes the bytes it kept (the loop's writer callback)."""
        if self.kept:
            self.kept = 0
            self.protocol.resume_writing()

    def close(self):
        self.closed = True


def _turns(loop, n=3):
    for _ in range(n):
        loop.run_until_complete(asyncio.sleep(0))


@pytest.fixture
def connected(loop):
    """A hub whose link to n0 is a real ``_Connection``: accepted on a
    stand-in transport, then identified by n0's HELLO."""
    hub, _, _ = _hub(loop)
    hub.links["n0"].conn = None
    conn = _Connection(hub, None)
    conn.connection_made(_Transport(conn))
    assert hub._anonymous == [conn]
    conn.data_received(wrap_envelope(hello_frame("n0", 0)))
    assert hub.links["n0"].conn is conn and hub._anonymous == []
    yield hub, conn
    hub.close()
    _turns(loop)


def _released(fired, name):
    return lambda: fired.append(name)


class TestOneWritePerTurn:
    def test_a_done_and_its_reply_leave_in_one_write_done_first(self, loop, connected):
        hub, conn = connected
        records, ids = _data_records(Flow(0, "ping", "n0", "n1"), 1)
        deliver, fired = hub._deliver, []

        def deliver_and_reply(frame):
            deliver(frame)
            _send_pong(hub, _released(fired, "pong"))

        hub._deliver = deliver_and_reply
        hub.ingest(conn, records)
        assert conn.transport.writes == [] and hub.writes_in_flight == 2
        _turns(loop)
        (write,) = conn.transport.writes
        frames = [frame for _, frame in StreamDecoder().feed(write)]
        assert [live_ctrl_kind(f) for f in frames] == ["done", None]
        assert [mid for mid, _ in done_items(frames[0])] == ids
        assert fired == ["pong"]
        assert (hub.socket_writes, hub.writes_in_flight, hub.bytes_tx) == (1, 0, len(write))

    def test_a_partly_kept_write_waits_for_resume_writing(self, loop, connected):
        hub, conn = connected
        fired = []
        conn.transport.keep_next = 3
        conn.enqueue(b"a", _released(fired, "a"))
        _turns(loop)
        assert conn.transport.writes == [b"a"] and fired == []
        conn.enqueue(b"b", _released(fired, "b"))
        conn.enqueue(b"h", None, counted=False)
        conn.enqueue(b"c", _released(fired, "c"))
        _turns(loop)
        assert conn.transport.writes == [b"a"] and hub.writes_in_flight == 3
        assert conn.transport.pauses == 1
        assert asyncio.all_tasks(loop) == set()  # 0 tasks per connection
        conn.transport.take()
        assert conn.transport.writes == [b"a", b"bhc"]
        assert fired == ["a", "b", "c"]
        assert (hub.socket_writes, hub.writes_in_flight) == (2, 0)
        assert conn.transport.pauses == 1

    def test_abort_during_a_drain_releases_each_write_once(self, loop, connected):
        hub, conn = connected
        fired = []
        conn.transport.keep_next = 3
        conn.enqueue(b"a", _released(fired, "a"))
        _turns(loop)
        conn.enqueue(b"b", _released(fired, "b"))
        conn.enqueue(b"h", None, counted=False)
        conn.abort()
        assert fired == [] and hub.writes_in_flight == 0  # released next turn
        assert conn.transport.closed
        conn.transport.take()  # the kernel takes the rest after the abort: nothing more
        _turns(loop)
        assert fired == ["a", "b"] and hub.writes_in_flight == 0
        assert conn.transport.writes == [b"a"]
        conn.enqueue(b"late", _released(fired, "late"))
        _turns(loop)
        assert fired == ["a", "b", "late"] and conn.transport.writes == [b"a"]

    def test_an_abort_from_a_release_releases_the_rest_of_the_write_once(
        self, loop, connected
    ):
        """A drained callback may fail the connection (the engine it wakes
        can): the records left in that write are released once, later."""
        hub, conn = connected
        fired = []

        def release_then_abort():
            fired.append("a")
            conn.abort()

        conn.enqueue(b"a", release_then_abort)
        conn.enqueue(b"b", _released(fired, "b"))
        _turns(loop)
        assert conn.transport.writes == [b"ab"]
        assert fired == ["a", "b"] and hub.writes_in_flight == 0

    def test_a_requested_close_comes_after_what_was_queued_before_it(self, loop, connected):
        hub, conn = connected
        fired = []
        conn.enqueue(b"a", _released(fired, "a"))
        conn.request_close()
        conn.enqueue(b"b", _released(fired, "b"))
        _turns(loop)
        assert conn.transport.writes == [b"a"] and conn.failed
        assert fired == ["a", "b"] and hub.writes_in_flight == 0
        assert hub.links["n0"].conn is None and hub.disconnects == 1


class _MemoryTransport(_Transport):
    """One end of an in-process byte pipe: each write reaches the far
    protocol's ``data_received`` whole, by ``call_soon``."""

    far: "_MemoryTransport"

    def write(self, data):
        super().write(data)
        asyncio.get_running_loop().call_soon(self.far.protocol.data_received, bytes(data))

    def close(self):
        if not self.closed:
            super().close()
            asyncio.get_running_loop().call_soon(self.protocol.connection_lost, None)
            self.far.close()


async def _mesh(carrier, server: Hub, client: Hub, tmp_path):
    """``client`` dials ``server`` over ``carrier``; both identified."""
    if carrier == "memory":
        accepted = _Connection(server, None)
        dialed = _Connection(client, server.node_name)
        ends = _MemoryTransport(accepted), _MemoryTransport(dialed)
        ends[0].far, ends[1].far = ends[1], ends[0]
        accepted.connection_made(ends[0])
        dialed.connection_made(ends[1])
    else:
        endpoint = await server.serve(carrier, str(tmp_path))
        await client.connect(server.node_name, endpoint)
    await client.await_mesh({server.node_name})
    await server.await_mesh({client.node_name})  # the client's HELLO was read


def _ping_pong(loop, monkeypatch, tmp_path, carrier, rounds):
    """``rounds`` ping-pongs n0 ⇄ n1 between two hubs in this process.

    Returns the hubs, the bytes each node received, the JSON codec
    calls made during the rounds, and the event-loop turns from the
    first ping to the last pong's arrival.
    """
    flows = {"n0": Flow(0, "ping", "n0", "n1"), "n1": Flow(1, "pong", "n1", "n0")}
    hubs: dict[str, Hub] = {}
    packet_ids = iter(range(1 << 30))
    received = {node: bytearray() for node in flows}
    calls, turns = [], [0]
    last_pong = loop.create_future()

    def send(node):
        message = next_message(flows[node])
        fragment = message.add_fragment(64)
        message.mark_flushed(0.0)
        packet = WirePacket(
            kind=PacketKind.EAGER, src=node, dst=flows[node].dst, channel_id=0,
            segments=(WireSegment(fragment, 0, 64),), packet_id=next(packet_ids),
        )
        hubs[node].send_packet(packet, encode_live_packet(packet), None)

    def deliverer(node):
        def deliver(frame):
            hubs[node].send_done(frame.src, frame.segments[0].message_id, 0.0)
            if node == "n1" or flows["n0"].messages_sent < rounds:
                send(node)
            else:
                last_pong.set_result(None)
        return deliver

    data_received, run_once = _Connection.data_received, loop._run_once
    dumps, loads = wire._dumps, json.loads

    def recording(conn, data):
        received[conn.hub.node_name] += data
        data_received(conn, data)

    def counted():
        turns[0] += 1
        run_once()

    async def run():
        for rank, node in enumerate(flows):
            clock = LiveClock(asyncio.get_running_loop(), epoch=time.time())
            hubs[node] = Hub(clock, node, rank, deliverer(node), names=list(flows))
        await _mesh(carrier, hubs["n0"], hubs["n1"], tmp_path)
        with monkeypatch.context() as m:
            m.setattr(wire, "_dumps", lambda value: calls.append(value) or dumps(value))
            m.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
            loop._run_once = counted
            send("n0")
            await last_pong
            del loop._run_once
            while any(hub.sent_messages or hub.writes_in_flight for hub in hubs.values()):
                await asyncio.sleep(0.001)
        for hub in hubs.values():
            hub.close()
        await asyncio.sleep(0)

    with monkeypatch.context() as m:
        m.setattr(_Connection, "data_received", recording)
        loop.run_until_complete(asyncio.wait_for(run(), timeout=30))
    return hubs, received, calls, turns[0]


@pytest.mark.parametrize("carrier", ["uds", "tcp", "memory"])
class TestWritesPerMessage:
    def test_a_ping_pong_is_one_write_per_message_and_no_json(
        self, loop, tmp_path, monkeypatch, carrier
    ):
        """Two hubs in one process: each reply leaves with the DONE of
        its request in one write, neither the data nor the DONE frames
        touch the JSON codec, and every carrier delivers the bytes the
        in-memory pair does, in the same order."""
        rounds = 50
        hubs, received, calls, _ = _ping_pong(loop, monkeypatch, tmp_path, carrier, rounds)
        messages = 2 * rounds
        assert [hub.done_received for hub in hubs.values()] == [rounds, rounds]
        writes = sum(hub.socket_writes for hub in hubs.values()) - 1  # the HELLO
        assert messages <= writes <= messages + 1  # the last DONE goes alone
        assert calls == []
        _, reference, _, _ = _ping_pong(loop, monkeypatch, tmp_path, "memory", rounds)
        assert received == reference


class TestTurnsPerRoundTrip:
    def test_a_round_trip_is_four_loop_turns(self, loop, tmp_path, monkeypatch):
        """Bytes are ingested in the callback that read them: a round
        trip is one read and one flush on each side."""
        rounds = 1000
        _, _, _, turns = _ping_pong(loop, monkeypatch, tmp_path, "uds", rounds)
        assert turns / rounds <= 4.01
