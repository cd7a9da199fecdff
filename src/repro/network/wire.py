"""Wire-level packet representation and byte codec.

A :class:`WirePacket` is what one NIC request puts on the wire: one or
more :class:`WireSegment` payload slices (several when the optimizer
aggregated packets or split a large message), plus protocol framing.
The network layer treats segment payloads as opaque — reassembly
semantics belong to the messaging layer above (:mod:`repro.madeleine`).

The module also defines the *byte-level* encoding used when a packet
actually crosses a socket (the live transport plane,
:mod:`repro.live.transport`): :func:`encode_frame` /
:func:`decode_frame` serialize one packet's framing — magic, version,
CRC-32 checksum, addressing, the ``meta`` control dict, and one
``(descriptor, offset, length, payload bytes)`` record per segment.
Segment payloads are JSON descriptors plus raw bytes rather than the
in-process :class:`~repro.madeleine.message.Fragment` objects the
simulator shares by reference; the live plane maps between the two.
Decoding is hardened: truncated, corrupted, or garbage input raises a
typed :class:`~repro.util.errors.WireError`, never a bare
``struct.error``/``IndexError``.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.util.errors import ProtocolError, WireError

__all__ = [
    "PacketKind",
    "WireSegment",
    "WirePacket",
    "HEADER_BYTES_PER_SEGMENT",
    "PACKET_HEADER_BYTES",
    "META_CORR",
    "META_SENT_AT",
    "META_VIA",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FRAME_PREFIX_BYTES",
    "DecodedSegment",
    "DecodedFrame",
    "correlation_id",
    "encode_frame",
    "decode_frame",
]

#: Framing bytes per packet (channel id, kind, segment count).
PACKET_HEADER_BYTES = 16
#: Framing bytes per segment (payload id, offset, length).
HEADER_BYTES_PER_SEGMENT = 12

# ----------------------------------------------------------------------
# reserved ``meta`` extension-space keys (distributed tracing)
# ----------------------------------------------------------------------
# The ``meta`` dict is the wire header's open extension space: any JSON
# payload rides along without a format change.  The live plane reserves
# these keys so a receiving peer can correlate every decoded frame with
# the exact nic.send span that produced it on the sending peer.

#: Correlation id, unique per (sending node, packet) — see
#: :func:`correlation_id`.
META_CORR = "_corr"
#: Sender's run clock (seconds since the shared epoch) at encode time.
META_SENT_AT = "_sent_at"
#: Name of the sending NIC rail (e.g. ``"n0.mx00"``).
META_VIA = "_via"


def correlation_id(node: str, packet_id: int) -> str:
    """The wire-crossing correlation id stamped into packet meta.

    Packet ids are counted per run — on the live plane, per peer — so
    namespacing by the sending node makes the pair unique across a
    whole live mesh.
    """
    return f"{node}#{packet_id}"


class PacketKind(enum.Enum):
    """Protocol role of a wire packet."""

    EAGER = "eager"  #: data sent inline, possibly aggregated
    RDV_REQ = "rdv_req"  #: rendezvous request (control)
    RDV_ACK = "rdv_ack"  #: rendezvous acknowledgement (control)
    RDV_DATA = "rdv_data"  #: rendezvous bulk data (zero-copy DMA)
    CTRL = "ctrl"  #: generic control / signalling message
    ACK = "ack"  #: transport-level delivery acknowledgement (reliability)

    @property
    def is_control(self) -> bool:
        """Whether the packet carries protocol control rather than payload."""
        return self in (PacketKind.RDV_REQ, PacketKind.RDV_ACK, PacketKind.CTRL, PacketKind.ACK)


@dataclass(frozen=True, slots=True)
class WireSegment:
    """A contiguous slice of one payload carried in a packet.

    ``payload`` is opaque to the network layer; the messaging layer uses
    it to locate the fragment being (partially) delivered.  ``offset``
    and ``length`` support splitting one fragment across several packets
    (multirail striping, rendezvous chunking).
    """

    payload: Any
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ProtocolError(
                f"segment with negative offset/length ({self.offset}, {self.length})"
            )


@dataclass(frozen=True, slots=True)
class WirePacket:
    """One NIC request worth of bytes.

    ``meta`` carries control-protocol fields (rendezvous tokens, source
    engine hints); it never contributes to the wire size beyond the fixed
    framing constants.  ``packet_id`` is handed in by the creator (the
    engine draws it from the run's ``sim.ids``): unique within a run,
    and the same for the same run every time.
    """

    kind: PacketKind
    src: str
    dst: str
    channel_id: int
    segments: tuple[WireSegment, ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.kind in (PacketKind.EAGER, PacketKind.RDV_DATA) and not self.segments:
            raise ProtocolError(f"{self.kind.value} packet must carry segments")
        if self.src == self.dst:
            raise ProtocolError(f"packet addressed to its own node {self.src!r}")

    @property
    def payload_bytes(self) -> int:
        """Total payload bytes (without framing)."""
        return sum(s.length for s in self.segments)

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire, including framing."""
        return (
            PACKET_HEADER_BYTES
            + len(self.segments) * HEADER_BYTES_PER_SEGMENT
            + self.payload_bytes
        )

    @property
    def segment_count(self) -> int:
        """Number of payload slices aggregated into this packet."""
        return len(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WirePacket(#{self.packet_id} {self.kind.value} {self.src}->{self.dst} "
            f"ch={self.channel_id} segs={len(self.segments)} bytes={self.payload_bytes})"
        )


# --------------------------------------------------------------------------
# Byte codec
# --------------------------------------------------------------------------

#: First four bytes of every encoded frame.
WIRE_MAGIC = b"RWIR"
#: Current frame format version.
WIRE_VERSION = 1

# magic(4) version(1) kind(1) flags(1) reserved(1) crc32(4) body_len(u32)
_PREFIX = struct.Struct("!4sBBBBII")
#: Size of the frame prefix.  The CRC covers only the *body* after it;
#: the flags/reserved prefix bytes are currently ignored by the decoder,
#: so a flip there is undetectable — fault injectors must aim past it.
FRAME_PREFIX_BYTES = _PREFIX.size
# channel_id(i32) src_len(u16) dst_len(u16) meta_len(u32) seg_count(u16)
_BODY_HEAD = struct.Struct("!iHHIH")
# desc_len(u32) offset(u64) length(u64)
_SEG_HEAD = struct.Struct("!IQQ")

# One compact encoder for every meta dict and segment descriptor.
_dumps = json.JSONEncoder(separators=(",", ":")).encode

_KIND_CODES = {kind: code for code, kind in enumerate(PacketKind)}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


@dataclass(frozen=True, slots=True)
class DecodedSegment:
    """One segment as it appears on the wire.

    ``descriptor`` is the sender's JSON routing record (flow id, fragment
    index, message layout …) — opaque to the codec; ``data`` is the raw
    payload slice covering ``[offset, offset + length)`` of the fragment.
    """

    descriptor: dict[str, Any]
    offset: int
    length: int
    data: bytes


@dataclass(frozen=True, slots=True)
class DecodedFrame:
    """A fully validated frame parsed from bytes."""

    kind: PacketKind
    src: str
    dst: str
    channel_id: int
    meta: dict[str, Any]
    segments: tuple[DecodedSegment, ...]


def encode_frame(
    kind: PacketKind,
    src: str,
    dst: str,
    channel_id: int,
    meta: dict[str, Any],
    segments: Sequence[tuple[dict[str, Any], int, int, bytes]] = (),
) -> bytes:
    """Serialize one packet's framing and payload into wire bytes.

    Each segment is ``(descriptor, offset, length, payload_bytes)``; the
    descriptor is any JSON-serializable dict the receiver needs to route
    the slice.  The returned buffer is self-delimiting (a length field in
    the prefix) and carries a CRC-32 over everything after the prefix, so
    :func:`decode_frame` can detect truncation and corruption.
    """
    src_b = src.encode("utf-8")
    dst_b = dst.encode("utf-8")
    meta_b = _dumps(meta).encode("utf-8")
    parts = [_BODY_HEAD.pack(channel_id, len(src_b), len(dst_b), len(meta_b), len(segments))]
    parts.append(src_b)
    parts.append(dst_b)
    parts.append(meta_b)
    for descriptor, offset, length, data in segments:
        if length != len(data):
            raise WireError(
                f"segment length field {length} disagrees with payload of {len(data)} bytes"
            )
        desc_b = _dumps(descriptor).encode("utf-8")
        parts.append(_SEG_HEAD.pack(len(desc_b), offset, length))
        parts.append(desc_b)
        parts.append(data)
    body = b"".join(parts)
    prefix = _PREFIX.pack(
        WIRE_MAGIC, WIRE_VERSION, _KIND_CODES[kind], 0, 0, zlib.crc32(body), len(body)
    )
    return prefix + body


class _Cursor:
    """Bounds-checked reader over a frame body — every overrun is a WireError."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int, what: str) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise WireError(
                f"truncated frame: {what} needs {n} bytes, {len(self._data) - self._pos} left"
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def unpack(self, fmt: struct.Struct, what: str) -> tuple[Any, ...]:
        return fmt.unpack(self.take(fmt.size, what))

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


def _decode_json(raw: bytes, what: str) -> dict[str, Any]:
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise WireError(f"{what} must decode to an object, got {type(value).__name__}")
    return value


def decode_frame(data: bytes) -> DecodedFrame:
    """Parse and validate one encoded frame.

    Raises :class:`~repro.util.errors.WireError` on any malformed input:
    short prefix, bad magic, unsupported version, unknown packet kind,
    truncated body, CRC mismatch, or garbage JSON.  Trailing bytes after
    the declared body length are also rejected — the caller is expected
    to hand exactly one frame (stream splitting happens a layer above).
    """
    if len(data) < _PREFIX.size:
        raise WireError(f"frame shorter than {_PREFIX.size}-byte prefix ({len(data)} bytes)")
    try:
        magic, version, kind_code, _flags, _reserved, crc, body_len = _PREFIX.unpack(
            data[: _PREFIX.size]
        )
    except struct.error as exc:  # pragma: no cover - length guarded above
        raise WireError(f"unreadable frame prefix: {exc}") from exc
    if magic != WIRE_MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} (expected {WIRE_VERSION})")
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise WireError(f"unknown packet kind code {kind_code}")
    body = data[_PREFIX.size :]
    if len(body) != body_len:
        raise WireError(f"frame body is {len(body)} bytes, prefix declared {body_len}")
    if zlib.crc32(body) != crc:
        raise WireError(f"checksum mismatch (crc32 {zlib.crc32(body):#010x} != {crc:#010x})")

    cur = _Cursor(body)
    channel_id, src_len, dst_len, meta_len, seg_count = cur.unpack(_BODY_HEAD, "body header")
    src = cur.take(src_len, "src").decode("utf-8", errors="replace")
    dst = cur.take(dst_len, "dst").decode("utf-8", errors="replace")
    meta = _decode_json(cur.take(meta_len, "meta"), "meta")
    segments = []
    for i in range(seg_count):
        desc_len, offset, length = cur.unpack(_SEG_HEAD, f"segment {i} header")
        descriptor = _decode_json(cur.take(desc_len, f"segment {i} descriptor"), "descriptor")
        payload = cur.take(length, f"segment {i} payload")
        segments.append(DecodedSegment(descriptor, offset, length, payload))
    if not cur.exhausted:
        raise WireError("trailing bytes after last segment")
    return DecodedFrame(kind, src, dst, channel_id, meta, tuple(segments))
