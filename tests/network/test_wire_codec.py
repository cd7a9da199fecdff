"""Round-trip, corruption and limit tests for the wire.py byte codec."""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.wire import (
    FRAME_PREFIX_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    DecodedFrame,
    DecodedSegment,
    MessageSkeleton,
    PacketKind,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ProtocolError, WireError

U32 = 2**32 - 1
U64 = 2**64 - 1
#: Message 3 of flow 1 and the skeleton that rebuilds it.
MID = 1 << 32 | 3
SKELETON = MessageSkeleton(flow_id=1, submit=0.25, seq=3, layout=((5, 1), (300, 0)), ctx={})


def _frame(**overrides) -> bytes:
    kwargs = dict(
        kind=PacketKind.EAGER,
        src="n0",
        dst="n1",
        channel_id=3,
        meta={"rdv": False, "token": 17},
        segments=[
            (MID, 0, SKELETON, 0, 5, b"hello"),
            (MID, 1, None, 128, 3, b"xyz"),
        ],
    )
    kwargs.update(overrides)
    return encode_frame(**kwargs)


def _seal(body: bytes) -> bytes:
    """``body`` behind a prefix whose length and CRC-32 are right."""
    crc = zlib.crc32(body)
    return struct.pack("!4sBBBBII", WIRE_MAGIC, WIRE_VERSION, 0, 0, 0, crc, len(body)) + body


class TestRoundTrip:
    def test_full_round_trip(self):
        frame = _frame()
        decoded = decode_frame(frame)
        assert isinstance(decoded, DecodedFrame)
        assert decoded.kind is PacketKind.EAGER
        assert decoded.src == "n0"
        assert decoded.dst == "n1"
        assert decoded.channel_id == 3
        assert decoded.meta == {"rdv": False, "token": 17}
        assert len(decoded.segments) == 2
        first, second = decoded.segments
        assert (first.message_id, first.index, first.offset, first.length, first.data) == (
            MID, 0, 0, 5, b"hello",
        )
        assert first.skeleton == SKELETON
        assert (second.message_id, second.index, second.offset, second.length, second.data) == (
            MID, 1, 128, 3, b"xyz",
        )
        assert second.skeleton is None

    def test_control_frame_without_segments(self):
        frame = _frame(kind=PacketKind.RDV_ACK, segments=[], meta={"msg": 9})
        decoded = decode_frame(frame)
        assert decoded.kind is PacketKind.RDV_ACK
        assert decoded.segments == ()
        assert decoded.meta == {"msg": 9}

    @pytest.mark.parametrize("kind", list(PacketKind))
    def test_every_kind_survives(self, kind):
        segs = [] if kind.is_control else [(MID, 0, None, 0, 1, b"a")]
        assert decode_frame(_frame(kind=kind, segments=segs)).kind is kind

    def test_empty_payload_segment(self):
        decoded = decode_frame(_frame(segments=[(MID, 0, None, 7, 0, b"")]))
        assert decoded.segments[0].data == b""
        assert decoded.segments[0].offset == 7

    def test_large_payload(self):
        blob = bytes(range(256)) * 512  # 128 KiB
        decoded = decode_frame(_frame(segments=[(MID, 0, None, 0, len(blob), blob)]))
        assert decoded.segments[0].data == blob

    def test_unicode_node_names_and_meta(self):
        frame = _frame(src="nœud-0", dst="ノード1", meta={"why": "héllo"})
        decoded = decode_frame(frame)
        assert decoded.src == "nœud-0"
        assert decoded.dst == "ノード1"
        assert decoded.meta["why"] == "héllo"

    def test_encode_rejects_length_mismatch(self):
        with pytest.raises(WireError, match="disagrees"):
            encode_frame(PacketKind.EAGER, "a", "b", 0, {}, [(MID, 0, None, 0, 9, b"short")])


class TestCorruption:
    def test_empty_input(self):
        with pytest.raises(WireError, match="shorter than"):
            decode_frame(b"")

    def test_truncated_prefix(self):
        with pytest.raises(WireError, match="shorter than"):
            decode_frame(_frame()[:7])

    @pytest.mark.parametrize("keep", [17, 30, -1])
    def test_truncated_body(self, keep):
        frame = _frame()
        with pytest.raises(WireError, match="body is"):
            decode_frame(frame[:keep])

    def test_bad_magic(self):
        frame = bytearray(_frame())
        frame[:4] = b"JUNK"
        with pytest.raises(WireError, match="bad magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(_frame())
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_frame(bytes(frame))

    def test_version_1_frame_rejected(self):
        """A peer still writing JSON segment descriptors is refused."""
        frame = bytearray(_frame())
        frame[4] = 1
        with pytest.raises(WireError, match="unsupported wire version 1"):
            decode_frame(bytes(frame))

    def test_unknown_kind_code(self):
        frame = bytearray(_frame())
        frame[5] = 250
        with pytest.raises(WireError, match="unknown packet kind"):
            decode_frame(bytes(frame))

    def test_flipped_payload_byte_fails_checksum(self):
        frame = bytearray(_frame())
        frame[-1] ^= 0xFF
        with pytest.raises(WireError, match="checksum mismatch"):
            decode_frame(bytes(frame))

    def test_flipped_header_byte_fails_checksum(self):
        frame = bytearray(_frame())
        frame[20] ^= 0x40  # inside the body header
        with pytest.raises(WireError, match="checksum"):
            decode_frame(bytes(frame))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireError, match="body is"):
            decode_frame(_frame() + b"garbage")

    def test_garbage_bytes_never_leak_struct_error(self):
        # Random-ish garbage of various lengths must always surface as
        # WireError, never IndexError/struct.error/UnicodeDecodeError.
        for n in (0, 1, 4, 12, 16, 40, 100):
            blob = bytes((i * 37 + 11) % 256 for i in range(n))
            with pytest.raises(WireError):
                decode_frame(blob)

    def test_magic_only_prefix_with_declared_body_but_no_body(self):
        # Craft a prefix that declares a body it does not carry.
        prefix = struct.pack("!4sBBBBII", WIRE_MAGIC, WIRE_VERSION, 0, 0, 0, 0, 64)
        with pytest.raises(WireError, match="body is 0 bytes"):
            decode_frame(prefix)

    def test_corrupt_meta_json_rejected(self):
        # Rebuild a frame whose CRC is valid but whose meta bytes are not
        # JSON: encode with a sentinel then patch both meta and CRC.
        body = bytearray(_frame(meta={"A": 1}, segments=[])[FRAME_PREFIX_BYTES:])
        idx = bytes(body).index(b'{"A":1}')
        body[idx : idx + 7] = b"not-js}"
        with pytest.raises(WireError, match="malformed meta JSON"):
            decode_frame(_seal(bytes(body)))

    def test_meta_must_be_object(self):
        body = bytearray(_frame(meta={"A": 1}, segments=[])[FRAME_PREFIX_BYTES:])
        idx = bytes(body).index(b'{"A":1}')
        body[idx : idx + 7] = b'[1,2,3]'
        with pytest.raises(WireError, match="must decode to an object"):
            decode_frame(_seal(bytes(body)))

    def test_bad_skeleton_flag_rejected(self):
        body = bytearray(_frame(meta={}, segments=[(MID, 0, None, 0, 5, b"hello")])[16:])
        flag_at = struct.calcsize("!iHHIH") + len("n0n1{}") + 12  # after message_id, index
        assert body[flag_at] == 0
        body[flag_at] = 2
        with pytest.raises(WireError, match="skeleton flag 2"):
            decode_frame(_seal(bytes(body)))

    def test_wire_error_is_protocol_error(self):
        assert issubclass(WireError, ProtocolError)
        with pytest.raises(ProtocolError):
            decode_frame(b"nope")


def _segment_with(mid=MID, index=0, offset=0, **skeleton):
    return [(mid, index, SKELETON._replace(**skeleton), offset, 5, b"hello")]


_OUT_OF_RANGE = {
    "message_id above u64": (_segment_with(mid=2**64), 0),
    "negative message_id": (_segment_with(mid=-1), 0),
    "index above u32": (_segment_with(index=2**32), 0),
    "offset above u64": (_segment_with(offset=2**64), 0),
    "flow_id above u32": (_segment_with(flow_id=2**32), 0),
    "seq above u32": (_segment_with(seq=2**32), 0),
    "submit not a number": (_segment_with(submit=None), 0),
    "fragment size above u32": (_segment_with(layout=((2**32, 0),)), 0),
    "express above u8": (_segment_with(layout=((5, 256),)), 0),
    "channel_id above i32": (_segment_with(), 2**31),
}

_ctx = st.dictionaries(
    st.text(max_size=6), st.integers(-(2**53), 2**53) | st.text(max_size=6), max_size=3
)
_skeletons = st.builds(
    MessageSkeleton,
    flow_id=st.integers(0, U32),
    submit=st.floats(allow_nan=False),
    seq=st.integers(0, U32),
    layout=st.lists(st.tuples(st.integers(0, U32), st.integers(0, 1)), max_size=64).map(tuple),
    ctx=_ctx,
)
_segments = st.lists(
    st.tuples(
        st.integers(0, U64), st.integers(0, U32), st.none() | _skeletons,
        st.integers(0, U64), st.binary(max_size=40),
    ).map(lambda s: (s[0], s[1], s[2], s[3], len(s[4]), s[4])),
    max_size=6,
)
_frames = st.builds(
    lambda segments, meta: encode_frame(PacketKind.EAGER, "n0", "n1", 0, meta, segments),
    _segments,
    _ctx,
)


class TestLimits:
    """The codec at the edges of its field widths, and under any damage."""

    @given(segments=_segments, meta=_ctx, channel_id=st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_at_the_field_limits(self, segments, meta, channel_id):
        frame = encode_frame(PacketKind.EAGER, "n0", "n1", channel_id, meta, segments)
        decoded = decode_frame(frame)
        assert decoded.segments == tuple(segments)
        assert (decoded.meta, decoded.channel_id) == (meta, channel_id)

    def test_widest_values_round_trip(self):
        layout = tuple((U32, i % 2) for i in range(1000))
        skeleton = MessageSkeleton(U32, 1e300, U32, layout, {"k": [1, "ü"]})
        segments = [(U64, U32, skeleton, U64, 4, b"edge"), (U64, 0, None, 0, 0, b"")]
        assert decode_frame(_frame(segments=segments)).segments == tuple(segments)

    @pytest.mark.parametrize("segments, channel_id", _OUT_OF_RANGE.values(), ids=list(_OUT_OF_RANGE))
    def test_out_of_range_field_is_a_wire_error(self, segments, channel_id):
        """Never ``struct.error``, never a silent wrap."""
        with pytest.raises(WireError, match="does not fit its wire slot"):
            encode_frame(PacketKind.EAGER, "n0", "n1", channel_id, {}, segments)

    @given(frame=_frames, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_is_a_wire_error(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(WireError):
            decode_frame(frame[:cut])

    @given(frame=_frames, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_byte_flip_is_a_wire_error_or_outside_the_crc(self, frame, data):
        at = data.draw(st.integers(0, len(frame) - 1))
        mutated = bytearray(frame)
        mutated[at] ^= data.draw(st.integers(1, 255))
        try:
            decoded = decode_frame(bytes(mutated))
        except WireError:
            return
        # Only the prefix's kind, flags and reserved bytes sit outside
        # the CRC (chaos corruption aims past them).
        assert at in (5, 6, 7)
        assert replace(decoded, kind=PacketKind.EAGER) == decode_frame(frame)

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_random_garbage_is_a_wire_error(self, blob):
        with pytest.raises(WireError):
            decode_frame(blob)

    @given(frame=_frames, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_damage_under_a_valid_crc_raises_only_wire_error(self, frame, data):
        """Past the CRC the parser holds on its own: a damaged body,
        re-sealed with a right length and CRC, decodes or is a
        ``WireError`` — never ``struct.error``, ``IndexError`` or a JSON
        exception."""
        body = bytearray(frame[FRAME_PREFIX_BYTES:])
        for _ in range(data.draw(st.integers(1, 4))):
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
        try:
            decode_frame(_seal(bytes(body)))
        except WireError:
            pass

    @given(body=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_random_body_under_a_valid_crc_raises_only_wire_error(self, body):
        try:
            decode_frame(_seal(body))
        except WireError:
            pass

    def test_v2_frame_is_pinned(self):
        """The byte layout is a contract between peers: change it on
        purpose (bump ``WIRE_VERSION``), then re-pin."""
        frame = _frame(segments=[
            (MID, 0, SKELETON._replace(ctx={"tag": 7}), 0, 5, b"hello"),
            (MID, 1, None, 128, 3, b"xyz"),
        ])
        assert WIRE_VERSION == 2
        assert len(frame) == 167
        assert hashlib.sha256(frame).hexdigest() == (
            "59fee6e196bb09317a8ba5799f6ec7d34a1ae10f10cbc714699bdbcb8bc5aa58"
        )


#: Three messages (the first with a context and a second fragment split
#: in two slices) under a ``meta`` dict, as ``WIRE_VERSION`` 2 writes them.
GOLDEN_SEGMENTS = (
    (MID, 0, MessageSkeleton(1, 0.5, 3, ((4, 1), (10, 0)), {"tag": 7}), 0, 4, b"head"),
    (MID + 1, 0, MessageSkeleton(1, 0.625, 4, ((3, 1),), {}), 0, 3, b"abc"),
    (MID, 1, None, 0, 6, b"split-"),
    (2 << 32, 0, MessageSkeleton(2, 0.75, 0, ((2, 1), (5, 0)), {}), 0, 2, b"xy"),
    (MID, 1, None, 6, 4, b"frag"),
    (2 << 32, 1, None, 0, 5, b"12345"),
)
GOLDEN_META = {"_corr": "n0#9", "_sent_at": 0.125, "_via": "n0.mx00"}
GOLDEN_FRAME = bytes.fromhex(
    "52574952020000009bbb60850000017400000005000200020000003200066e30"
    "6e317b225f636f7272223a226e302339222c225f73656e745f6174223a302e31"
    "32352c225f766961223a226e302e6d783030227d000000010000000300000000"
    "0100000000000000000000000000000004000000013fe0000000000000000000"
    "03000000020000000900000004010000000a007b22746167223a377d68656164"
    "0000000100000004000000000100000000000000000000000000000003000000"
    "013fe40000000000000000000400000001000000000000000301616263000000"
    "010000000300000001000000000000000000000000000000000673706c69742d"
    "0000000200000000000000000100000000000000000000000000000002000000"
    "023fe80000000000000000000000000002000000000000000201000000050078"
    "7900000001000000030000000100000000000000000600000000000000046672"
    "6167000000020000000000000001000000000000000000000000000000000531"
    "32333435"
)


class TestGoldenFrame:
    """Peers of two checkouts must agree on every byte of a frame."""

    def test_encoder_writes_the_golden_frame(self):
        frame = encode_frame(PacketKind.EAGER, "n0", "n1", 5, GOLDEN_META, GOLDEN_SEGMENTS)
        assert frame == GOLDEN_FRAME

    def test_decoder_reads_the_golden_frame(self):
        decoded = decode_frame(GOLDEN_FRAME)
        assert decoded == DecodedFrame(
            PacketKind.EAGER, "n0", "n1", 5, GOLDEN_META, GOLDEN_SEGMENTS
        )
        assert all(type(segment) is DecodedSegment for segment in decoded.segments)
        skeletons = [segment.skeleton for segment in decoded.segments]
        assert [type(skeleton) for skeleton in skeletons if skeleton] == [MessageSkeleton] * 3
        assert skeletons[0].layout == ((4, 1), (10, 0)) and skeletons[0].ctx == {"tag": 7}
