"""Unit tests for the live plane's framing, payloads, clock and mirror."""

import asyncio
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.loop import LiveClock
from repro.live.transport import (
    MAX_FRAME_BYTES,
    TAG_RAW,
    TAG_SEQ,
    MirrorReceiver,
    StreamDecoder,
    done_frame,
    encode_live_packet,
    fragment_seed,
    hello_frame,
    live_ctrl_kind,
    payload_bytes,
    wrap_envelope,
)
from repro.madeleine.message import Flow, Message
from repro.network.wire import (
    DecodedSegment,
    PacketKind,
    WirePacket,
    WireSegment,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ProtocolError, SimulationError, WireError

from tests.core.helpers import next_message


def _ctrl_frame(meta=None):
    return encode_frame(PacketKind.CTRL, "n0", "n1", 0, meta or {})


def _decode_one(frame: bytes):
    """One bare frame through the stream: wrap, feed, expect it alone."""
    ((seq, decoded),) = StreamDecoder().feed(wrap_envelope(frame))
    assert seq is None
    return decoded


class TestStreamFraming:
    def test_roundtrip_one_frame(self):
        decoder = StreamDecoder()
        records = decoder.feed(wrap_envelope(_ctrl_frame({"k": 1})))
        assert len(records) == 1
        seq, frame = records[0]
        assert seq is None and frame.meta == {"k": 1}
        assert decoder.buffered == 0

    def test_raw_data_record_decodes_like_the_bare_frame(self):
        """The single format costs a lossless run one tag byte and
        nothing else: a ``TAG_RAW`` data record carries exactly the
        ``DecodedFrame`` the bare wire-codec frame decodes to."""
        _, packet = _sent_packet(Flow(0, "t-raw", "n0", "n1"))
        frame = encode_live_packet(packet)
        record = wrap_envelope(frame)
        assert len(record) == 4 + 1 + len(frame) and record[4] == TAG_RAW
        ((seq, decoded),) = StreamDecoder().feed(record)
        assert seq is None
        assert decoded == decode_frame(frame)
        assert decoded.segments[0].length == 128

    def test_partial_reads_any_boundary(self):
        wire = wrap_envelope(_ctrl_frame({"a": 1})) + wrap_envelope(
            _ctrl_frame({"a": 2}), seq=0
        )
        # Feed one byte at a time: no boundary assumption may survive this.
        decoder = StreamDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i : i + 1]))
        assert [(seq, f.meta["a"]) for seq, f in out] == [(None, 1), (0, 2)]
        assert decoder.buffered == 0

    def test_split_inside_length_prefix(self):
        wire = wrap_envelope(_ctrl_frame())
        decoder = StreamDecoder()
        assert decoder.feed(wire[:2]) == []
        assert decoder.buffered == 2
        records = decoder.feed(wire[2:])
        assert len(records) == 1

    def test_many_frames_one_chunk(self):
        wire = b"".join(wrap_envelope(_ctrl_frame({"i": i})) for i in range(5))
        records = StreamDecoder().feed(wire)
        assert [f.meta["i"] for _, f in records] == [0, 1, 2, 3, 4]

    def test_oversized_declared_length_rejected(self):
        import struct

        decoder = StreamDecoder()
        with pytest.raises(WireError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_oversized_frame_rejected_on_wrap(self):
        with pytest.raises(WireError):
            wrap_envelope(b"\0" * MAX_FRAME_BYTES)  # + the tag byte

    def test_corrupt_payload_raises_from_codec(self):
        wire = bytearray(wrap_envelope(_ctrl_frame({"k": 1})))
        wire[-1] ^= 0xFF  # flip a bit inside the codec frame
        with pytest.raises(WireError):
            StreamDecoder().feed(bytes(wire))

    def test_malformed_envelope_rejected(self):
        import struct

        for body in (b"", b"\x07" + _ctrl_frame(), bytes([TAG_SEQ]) + b"\0\0"):
            with pytest.raises(WireError):
                StreamDecoder().feed(struct.pack("!I", len(body)) + body)
        with pytest.raises(WireError):
            wrap_envelope(_ctrl_frame(), seq=-1)
        tolerant = StreamDecoder(tolerant=True)
        assert tolerant.feed(struct.pack("!I", 0)) == []
        assert tolerant.corrupt_frames == 1


class TestPayloadPattern:
    def test_deterministic(self):
        seed = fragment_seed("n0", 7, 0)
        assert payload_bytes(seed, 0, 64) == payload_bytes(seed, 0, 64)

    def test_distinct_fragments_distinct_bytes(self):
        a = payload_bytes(fragment_seed("n0", 7, 0), 0, 64)
        b = payload_bytes(fragment_seed("n0", 8, 0), 0, 64)
        assert a != b

    def test_slices_are_absolute(self):
        seed = fragment_seed("n0", 1, 2)
        whole = payload_bytes(seed, 0, 1000)
        assert payload_bytes(seed, 300, 200) == whole[300:500]
        assert payload_bytes(seed, 999, 1) == whole[999:]

    def test_zero_length(self):
        assert payload_bytes(123, 10, 0) == b""

    def test_negative_slice_rejected(self):
        with pytest.raises(WireError):
            payload_bytes(123, -1, 4)
        with pytest.raises(WireError):
            payload_bytes(123, 0, -4)

    def test_seed_zero_still_patterns(self):
        data = payload_bytes(0, 0, 256)
        assert len(set(data)) > 1  # not a constant fill

    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.integers(0, 1100),
        length=st.integers(0, 1100),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_slice_is_a_slice_of_the_whole(self, seed, offset, length):
        """Absolute addressing across tile boundaries (256 B): a slice
        generated on its own equals the same span of one long read."""
        whole = payload_bytes(seed, 0, offset + length)
        assert payload_bytes(seed, offset, length) == whole[offset:]
        assert len(whole) == offset + length

    def test_distinct_seeds_distinct_tiles(self):
        tiles = {payload_bytes(seed * 2654435761 % 2**32, 0, 256) for seed in range(10_000)}
        assert len(tiles) == 10_000

    def test_wire_pattern_is_pinned(self):
        """Two checkouts that disagree about the pattern would each
        verify their own bytes and reject the other's: pin it."""
        assert payload_bytes(0, 0, 16).hex() == "8f970ca42c849ca00c48f88d88380c57"
        seed = fragment_seed("n0", 7, 0)
        assert seed == 3484234675
        assert payload_bytes(seed, 0, 16).hex() == "0bfc96377ee83adf9555835d225a5fb5"


class TestControlFrames:
    def test_hello_identifies_peer(self):
        frame = _decode_one(hello_frame("n2", 2))
        assert live_ctrl_kind(frame) == "hello"
        assert frame.meta["node"] == "n2"
        assert frame.meta["rank"] == 2

    def test_done_carries_items(self):
        frame = _decode_one(done_frame("n1", "n0", [(5, 1.25)]))
        assert live_ctrl_kind(frame) == "done"
        assert frame.meta["items"] == [[5, 1.25]]

    def test_engine_traffic_is_not_ctrl(self):
        assert live_ctrl_kind(_decode_one(_ctrl_frame({"other": 1}))) is None


def _sent_packet(flow, size=128):
    """One eager packet exactly as the engine would dispatch it."""
    message = next_message(flow)
    fragment = message.add_fragment(size)
    message.mark_flushed(0.5)
    packet = WirePacket(
        kind=PacketKind.EAGER,
        src=flow.src,
        dst=flow.dst,
        channel_id=0,
        segments=(WireSegment(fragment, 0, size),),
        packet_id=0,
    )
    return message, packet


class TestMirrorReceiver:
    def _pair(self, flow):
        """A receiver wired to resolve exactly ``flow``."""
        return MirrorReceiver(flow.dst, lambda fid: flow if fid == flow.flow_id else None)

    def test_roundtrip_rebuilds_packet(self):
        flow = Flow(0, "t-mirror", "n0", "n1")
        message, packet = _sent_packet(flow)
        mirror = self._pair(flow)
        rebuilt = mirror.packet_from_frame(_decode_one(encode_live_packet(packet)), 0)
        assert rebuilt.kind is PacketKind.EAGER
        assert rebuilt.src == "n0" and rebuilt.dst == "n1"
        seg = rebuilt.segments[0]
        assert seg.length == 128 and seg.offset == 0
        assert seg.payload.message.flow is flow
        assert seg.payload.message.submit_time == 0.5
        assert mirror.bytes_verified == 128
        assert mirror.corrupt_slices == 0

    def test_mirror_carries_sender_id(self):
        """The receiver names the message as the sender does — the DONE
        acknowledgement and every trace join go by that id."""
        flow = Flow(3, "t-ids", "n0", "n1")
        _sent_packet(flow)  # seq 0 went earlier: the mirror must read seq, not count
        message, packet = _sent_packet(flow)
        mirror = self._pair(flow)
        rebuilt = mirror.packet_from_frame(
            _decode_one(encode_live_packet(packet)), 7
        )
        assert rebuilt.packet_id == 7
        mirrored = rebuilt.segments[0].payload.message
        assert mirrored is not message
        assert (mirrored.message_id, mirrored.seq) == (message.message_id, 1)
        assert mirrored.flow.src == "n0"
        assert flow.messages_sent == 2  # building a mirror sends nothing
        assert mirror.open_mirrors == 1
        mirror.forget(mirrored)
        assert mirror.open_mirrors == 0

    def test_forged_message_id_rejected(self):
        flow = Flow(0, "t-forged", "n0", "n1")
        _, packet = _sent_packet(flow)
        frame = _decode_one(encode_live_packet(packet))
        frame.segments[0].descriptor["msg"] += 1
        with pytest.raises(ProtocolError, match="names message"):
            self._pair(flow).packet_from_frame(frame, 0)

    def test_forget_from_drops_every_open_mirror_of_a_sender(self):
        flows = [Flow(0, "a", "n0", "n2"), Flow(1, "b", "n1", "n2")]
        mirror = MirrorReceiver("n2", lambda fid: flows[fid])
        for flow, count in zip(flows, (3, 2)):
            for _ in range(count):
                _, packet = _sent_packet(flow)
                mirror.packet_from_frame(
                    _decode_one(encode_live_packet(packet)), 0
                )
        assert mirror.open_mirrors == 5
        assert mirror.forget_from("n0") == 3
        assert mirror.open_mirrors == 2
        assert mirror.forget_from("n0") == 0

    def test_same_message_reuses_mirror(self):
        flow = Flow(0, "t-reuse", "n0", "n1")
        message = Message(flow, seq=0)
        f0 = message.add_fragment(100)
        f1 = message.add_fragment(50)
        message.mark_flushed(0.0)
        packets = [
            WirePacket(
                kind=PacketKind.EAGER,
                src="n0",
                dst="n1",
                channel_id=0,
                segments=(WireSegment(f, 0, f.size),),
                packet_id=0,
            )
            for f in (f0, f1)
        ]
        mirror = self._pair(flow)
        rebuilt = [
            mirror.packet_from_frame(_decode_one(encode_live_packet(p)), 0)
            for p in packets
        ]
        m0 = rebuilt[0].segments[0].payload.message
        m1 = rebuilt[1].segments[0].payload.message
        assert m0 is m1
        assert [f.size for f in m0.fragments] == [100, 50]
        assert mirror.open_mirrors == 1

    def test_corrupted_bytes_detected(self):
        flow = Flow(0, "t-corrupt", "n0", "n1")
        _, packet = _sent_packet(flow)
        # The codec CRC catches wire flips, so model corruption *past*
        # the codec: same frame, segment data replaced by zeros.
        frame = _decode_one(encode_live_packet(packet))

        class _Seg:
            descriptor = frame.segments[0].descriptor
            offset = frame.segments[0].offset
            length = frame.segments[0].length
            data = bytes(frame.segments[0].length)  # zeros != pattern

        class _Frame:
            kind = frame.kind
            src = frame.src
            dst = frame.dst
            channel_id = frame.channel_id
            meta = frame.meta
            segments = [_Seg]

        mirror = self._pair(flow)
        with pytest.raises(WireError):
            mirror.packet_from_frame(_Frame, 0)
        assert mirror.corrupt_slices == 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_mutated_byte_in_any_slice_is_detected(self, data):
        """Every received slice is compared against the pattern: one
        flipped byte anywhere in any segment (here past the CRC, which
        would catch it first on a real wire) is a ``WireError``."""
        flow = Flow(0, "t-flip", "n0", "n1")
        message = next_message(flow)
        fragments = [message.add_fragment(size) for size in (300, 40)]
        message.mark_flushed(0.0)
        slices = [(fragments[0], 0, 100), (fragments[0], 100, 200), (fragments[1], 0, 40)]
        packet = WirePacket(
            kind=PacketKind.EAGER, src="n0", dst="n1", channel_id=0,
            segments=tuple(WireSegment(*s) for s in slices), packet_id=0,
        )
        frame = _decode_one(encode_live_packet(packet))
        victim = data.draw(st.integers(0, len(slices) - 1))
        at = data.draw(st.integers(0, slices[victim][2] - 1))
        flip = data.draw(st.integers(1, 255))
        segments = list(frame.segments)
        seg = segments[victim]
        mutated = bytearray(seg.data)
        mutated[at] ^= flip
        segments[victim] = DecodedSegment(seg.descriptor, seg.offset, seg.length, bytes(mutated))
        mirror = self._pair(flow)
        with pytest.raises(WireError, match="payload mismatch"):
            mirror.packet_from_frame(replace(frame, segments=tuple(segments)), 0)
        assert mirror.corrupt_slices == 1
        assert mirror.bytes_verified == sum(s[2] for s in slices[:victim])

    def test_skeleton_once_per_message_per_frame(self):
        """A message's first segment in a frame carries the skeleton,
        its later ones ``{"msg", "idx"}``; the next frame starts over."""
        flow = Flow(0, "t-skeleton", "n0", "n1")
        packets = []
        for _ in range(2):
            message = next_message(flow)
            a, b = message.add_fragment(100), message.add_fragment(50)
            message.mark_flushed(0.0)
            packets.append((message, a, b))
        (m0, a0, b0), (m1, a1, b1) = packets
        packet = WirePacket(
            kind=PacketKind.EAGER, src="n0", dst="n1", channel_id=0,
            segments=tuple(
                WireSegment(f, o, n)
                for f, o, n in ((a0, 0, 60), (a1, 0, 100), (a0, 60, 40), (b0, 0, 50))
            ),
            packet_id=0,
        )
        frame = _decode_one(encode_live_packet(packet))
        short = {"msg": m0.message_id, "idx": 0}
        assert [sorted(s.descriptor) for s in frame.segments] == [
            sorted(["flow", "msg", "idx", "layout", "submit", "seq", "ctx"])
        ] * 2 + [["idx", "msg"]] * 2
        assert frame.segments[2].descriptor == short
        assert frame.segments[3].descriptor == {"msg": m0.message_id, "idx": 1}
        mirror = self._pair(flow)
        rebuilt = mirror.packet_from_frame(frame, 0)
        assert [(s.payload.message.message_id, s.payload.index, s.offset, s.length)
                for s in rebuilt.segments] == [
            (m0.message_id, 0, 0, 60), (m1.message_id, 0, 0, 100),
            (m0.message_id, 0, 60, 40), (m0.message_id, 1, 0, 50),
        ]
        assert mirror.bytes_verified == 250
        # A later frame of the same message repeats the skeleton: the
        # codec keeps no state across frames.
        tail = WirePacket(
            kind=PacketKind.EAGER, src="n0", dst="n1", channel_id=0,
            segments=(WireSegment(b1, 0, 50),), packet_id=1,
        )
        assert "layout" in _decode_one(encode_live_packet(tail)).segments[0].descriptor

    def test_short_descriptor_without_a_mirror_rejected(self):
        flow = Flow(0, "t-short", "n0", "n1")
        message, packet = _sent_packet(flow)
        frame = _decode_one(encode_live_packet(packet))
        seg = frame.segments[0]
        short = DecodedSegment(
            {"msg": message.message_id, "idx": 0}, seg.offset, seg.length, seg.data
        )
        mirror = self._pair(flow)
        with pytest.raises(WireError, match="descriptor missing"):
            mirror.packet_from_frame(replace(frame, segments=(short,)), 0)
        assert mirror.open_mirrors == 0 and mirror.bytes_verified == 0

    def test_unknown_flow_rejected(self):
        flow = Flow(0, "t-unknown", "n0", "n1")
        _, packet = _sent_packet(flow)
        frame = _decode_one(encode_live_packet(packet))
        mirror = MirrorReceiver("n1", lambda fid: None)
        with pytest.raises(ProtocolError):
            mirror.packet_from_frame(frame, 0)

    def test_wrong_destination_rejected(self):
        flow = Flow(0, "t-wrongdst", "n0", "n1")
        _, packet = _sent_packet(flow)
        frame = _decode_one(encode_live_packet(packet))
        mirror = MirrorReceiver("n2", lambda fid: flow)
        with pytest.raises(ProtocolError):
            mirror.packet_from_frame(frame, 0)

    def test_non_fragment_payload_rejected(self):
        packet = WirePacket(
            kind=PacketKind.EAGER,
            src="n0",
            dst="n1",
            channel_id=0,
            segments=(WireSegment("not a fragment", 0, 4),),
            packet_id=0,
        )
        with pytest.raises(ProtocolError):
            encode_live_packet(packet)


class TestLiveClock:
    def _clock(self, loop, **kw):
        return LiveClock(loop, epoch=time.time(), **kw)

    def test_now_is_sticky_until_refresh(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            before = clock.now
            time.sleep(0.01)
            assert clock.now == before  # frozen within the callback chain
            assert clock.refresh() > before
        finally:
            loop.close()

    def test_refresh_never_rewinds(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            clock._now = clock.now + 1e6  # simulate a wall-clock step back
            assert clock.refresh() >= 1e6
        finally:
            loop.close()

    def test_negative_delay_rejected(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            with pytest.raises(SimulationError):
                clock.schedule(-1.0, lambda: None)
            with pytest.raises(SimulationError):
                clock.at(clock.now - 1.0, lambda: None)
        finally:
            loop.close()

    def test_invalid_time_scale_rejected(self):
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(SimulationError):
                LiveClock(loop, epoch=time.time(), time_scale=0.0)
        finally:
            loop.close()

    def test_timer_fires_and_clamps_now(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            fired = []
            event = clock.schedule(0.005, lambda: fired.append(clock.now))
            assert clock.pending_timers == 1
            loop.run_until_complete(asyncio.sleep(0.05))
            assert fired and fired[0] >= event.time
            assert clock.pending_timers == 0
        finally:
            loop.close()

    def test_cancel_releases_pending(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            event = clock.schedule(10.0, lambda: None)
            assert clock.pending_timers == 1
            clock.cancel(event)
            assert clock.pending_timers == 0
            clock.cancel(event)  # idempotent
            assert clock.pending_timers == 0
        finally:
            loop.close()

    def test_background_timer_fires_uncounted(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop, time_scale=2.0)
            armed_at = clock.now
            fired = []
            clock.background(0.005, lambda tag: fired.append((tag, clock.now)), "late")
            clock.background(0.0, lambda: fired.append(("soon", clock.now)))
            doomed = clock.background(0.001, fired.append, "cancelled")
            doomed.cancel()
            assert clock.pending_timers == 0  # never holds quiescence open
            loop.run_until_complete(asyncio.sleep(0.05))
            assert [tag for tag, _ in fired] == ["soon", "late"]
            # 0.005 virtual seconds at 2 real seconds each; ``now`` was
            # refreshed before the callback read it.
            assert fired[1][1] >= armed_at + 0.005
            assert clock.pending_timers == 0
        finally:
            loop.close()

    def test_time_scale_stretches_now(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop, time_scale=100.0)
            assert clock.time_scale == 100.0
            time.sleep(0.02)
            # 20ms of wall time is only ~0.2ms of run time at 100x.
            assert clock.refresh() < 0.01
        finally:
            loop.close()
