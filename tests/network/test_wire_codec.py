"""Round-trip and corruption tests for the wire.py byte codec."""

from __future__ import annotations

import struct

import pytest

from repro.network.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    DecodedFrame,
    PacketKind,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ProtocolError, WireError


def _frame(**overrides) -> bytes:
    kwargs = dict(
        kind=PacketKind.EAGER,
        src="n0",
        dst="n1",
        channel_id=3,
        meta={"rdv": False, "token": 17},
        segments=[
            ({"flow": 1, "frag": 0}, 0, 5, b"hello"),
            ({"flow": 2, "frag": 4}, 128, 3, b"xyz"),
        ],
    )
    kwargs.update(overrides)
    return encode_frame(**kwargs)


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
        assert (first.descriptor, first.offset, first.length, first.data) == (
            {"flow": 1, "frag": 0},
            0,
            5,
            b"hello",
        )
        assert (second.descriptor, second.offset, second.length, second.data) == (
            {"flow": 2, "frag": 4},
            128,
            3,
            b"xyz",
        )

    def test_control_frame_without_segments(self):
        frame = _frame(kind=PacketKind.RDV_ACK, segments=[], meta={"msg": 9})
        decoded = decode_frame(frame)
        assert decoded.kind is PacketKind.RDV_ACK
        assert decoded.segments == ()
        assert decoded.meta == {"msg": 9}

    @pytest.mark.parametrize("kind", list(PacketKind))
    def test_every_kind_survives(self, kind):
        segs = [] if kind.is_control else [({"i": 0}, 0, 1, b"a")]
        assert decode_frame(_frame(kind=kind, segments=segs)).kind is kind

    def test_empty_payload_segment(self):
        decoded = decode_frame(_frame(segments=[({"z": True}, 7, 0, b"")]))
        assert decoded.segments[0].data == b""
        assert decoded.segments[0].offset == 7

    def test_large_payload(self):
        blob = bytes(range(256)) * 512  # 128 KiB
        decoded = decode_frame(_frame(segments=[({"big": 1}, 0, len(blob), blob)]))
        assert decoded.segments[0].data == blob

    def test_unicode_node_names_and_meta(self):
        frame = _frame(src="nœud-0", dst="ノード1", meta={"why": "héllo"})
        decoded = decode_frame(frame)
        assert decoded.src == "nœud-0"
        assert decoded.dst == "ノード1"
        assert decoded.meta["why"] == "héllo"

    def test_encode_rejects_length_mismatch(self):
        with pytest.raises(WireError, match="disagrees"):
            encode_frame(PacketKind.EAGER, "a", "b", 0, {}, [({}, 0, 9, b"short")])


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
        import zlib

        frame = bytearray(_frame(meta={"A": 1}, segments=[]))
        body = bytearray(frame[16:])
        idx = bytes(body).index(b'{"A":1}')
        body[idx : idx + 7] = b"not-js}"
        frame[16:] = body
        frame[8:12] = struct.pack("!I", zlib.crc32(bytes(body)))
        with pytest.raises(WireError, match="malformed meta JSON"):
            decode_frame(bytes(frame))

    def test_meta_must_be_object(self):
        import zlib

        frame = bytearray(_frame(meta={"A": 1}, segments=[]))
        body = bytearray(frame[16:])
        idx = bytes(body).index(b'{"A":1}')
        body[idx : idx + 7] = b'[1,2,3]'
        frame[16:] = body
        frame[8:12] = struct.pack("!I", zlib.crc32(bytes(body)))
        with pytest.raises(WireError, match="must decode to an object"):
            decode_frame(bytes(frame))

    def test_wire_error_is_protocol_error(self):
        assert issubclass(WireError, ProtocolError)
        with pytest.raises(ProtocolError):
            decode_frame(b"nope")
