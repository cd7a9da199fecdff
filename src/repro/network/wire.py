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
CRC-32 checksum, addressing, the ``meta`` control dict (JSON), and one
binary :class:`DecodedSegment` record per segment, whose message's first
segment in the frame carries its :class:`MessageSkeleton`.  The live
plane maps these to and from in-process fragments.  Truncated,
corrupted or garbage input, and a field too wide for its slot, raise a
typed :class:`~repro.util.errors.WireError`, never ``struct.error``.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

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
    "MessageSkeleton",
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


class _WireSegment(NamedTuple):
    payload: Any
    offset: int
    length: int


class WireSegment(_WireSegment):
    """A contiguous slice of one payload carried in a packet.

    ``payload`` is opaque to the network layer; the messaging layer uses
    it to locate the fragment being (partially) delivered.  ``offset``
    and ``length`` support splitting one fragment across several packets
    (multirail striping, rendezvous chunking).  An immutable named
    tuple: one is built per dispatched segment.
    """

    __slots__ = ()

    def __new__(cls, payload: Any, offset: int, length: int) -> "WireSegment":
        if offset < 0 or length < 0:
            raise ProtocolError(
                f"segment with negative offset/length ({offset}, {length})"
            )
        return tuple.__new__(cls, (payload, offset, length))


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
    #: Total payload bytes (without framing).
    payload_bytes: int = field(init=False, compare=False)
    #: Total bytes on the wire, including framing.
    wire_bytes: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind in (PacketKind.EAGER, PacketKind.RDV_DATA) and not self.segments:
            raise ProtocolError(f"{self.kind.value} packet must carry segments")
        if self.src == self.dst:
            raise ProtocolError(f"packet addressed to its own node {self.src!r}")
        # Read 7-9 times per packet (driver, stats, receiver, emit sites).
        payload = sum(s.length for s in self.segments)
        framing = PACKET_HEADER_BYTES + len(self.segments) * HEADER_BYTES_PER_SEGMENT
        object.__setattr__(self, "payload_bytes", payload)
        object.__setattr__(self, "wire_bytes", framing + payload)

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
#: Current frame format version (2: binary segment records).
WIRE_VERSION = 2

# magic(4) version(1) kind(1) flags(1) reserved(1) crc32(4) body_len(u32)
_PREFIX = struct.Struct("!4sBBBBII")
#: Size of the frame prefix.  The CRC covers only the *body* after it;
#: the flags/reserved prefix bytes are currently ignored by the decoder,
#: so a flip there is undetectable — fault injectors must aim past it.
FRAME_PREFIX_BYTES = _PREFIX.size
# channel_id(i32) src_len(u16) dst_len(u16) meta_len(u32) seg_count(u16)
_BODY_HEAD = struct.Struct("!iHHIH")
# message_id(u64) index(u32) has_skeleton(u8) offset(u64) length(u64)
_SEGMENT = struct.Struct("!QIBQQ")
# flow_id(u32) submit(f64) seq(u32) fragment_count(u32) ctx_len(u32)
_SKELETON = struct.Struct("!IdIII")
# one per fragment, in index order: size(u32) express(u8)
_LAYOUT_ENTRY = struct.Struct("!IB")
# A message's first segment in a frame: its header and skeleton, packed at once.
_SKELETON_SEGMENT = struct.Struct(_SEGMENT.format + _SKELETON.format[1:])

# One compact encoder for every meta dict and message context.
_dumps = json.JSONEncoder(separators=(",", ":")).encode

_KIND_CODES = {kind: code for code, kind in enumerate(PacketKind)}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


class MessageSkeleton(NamedTuple):
    """What a receiver needs to rebuild a message it has not seen.

    ``layout`` is ``(size, express)`` per fragment, in index order;
    ``ctx`` is the message's application context (zero bytes on the
    wire when empty).
    """

    flow_id: int
    submit: float
    seq: int
    layout: Sequence[tuple[int, int]]
    ctx: dict[str, Any]


class DecodedSegment(NamedTuple):
    """One segment as it appears on the wire.

    ``data`` is the raw payload slice covering ``[offset, offset +
    length)`` of fragment ``index`` of message ``message_id``;
    ``skeleton`` rides on the message's first segment in the frame.
    """

    message_id: int
    index: int
    skeleton: MessageSkeleton | None
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
    segments: Sequence[tuple] = (),
) -> bytes:
    """Serialize one packet's framing and payload into wire bytes.

    Each segment is ``(message_id, index, skeleton, offset, length,
    data)``, the fields of :class:`DecodedSegment`; a skeleton is any
    5-tuple in :class:`MessageSkeleton`'s field order.  The returned
    buffer is self-delimiting (a length field in the prefix) and
    carries a CRC-32 over everything after the prefix, so
    :func:`decode_frame` can detect truncation and corruption.  A field
    its wire slot cannot hold (negative, too wide, not a number) is a
    ``WireError``, never a wrap.
    """
    src_b = src.encode("utf-8")
    dst_b = dst.encode("utf-8")
    meta_b = _dumps(meta).encode("utf-8") if meta else b"{}"  # the codec's bytes
    pack_segment = _SEGMENT.pack
    try:
        head = _BODY_HEAD.pack(channel_id, len(src_b), len(dst_b), len(meta_b), len(segments))
        parts = [head, src_b, dst_b, meta_b]
        for message_id, index, skeleton, offset, length, data in segments:
            if length != len(data):
                raise WireError(
                    f"segment length field {length} disagrees with payload of {len(data)} bytes"
                )
            if skeleton is None:
                parts += (pack_segment(message_id, index, 0, offset, length), data)
                continue
            flow_id, submit, seq, layout, ctx = skeleton
            ctx_b = _dumps(ctx).encode("utf-8") if ctx else b""
            parts.append(_SKELETON_SEGMENT.pack(
                message_id, index, 1, offset, length, flow_id, submit, seq, len(layout), len(ctx_b)
            ))
            parts += [_LAYOUT_ENTRY.pack(size, express) for size, express in layout]
            parts += (ctx_b, data)
        body = b"".join(parts)
        prefix = _PREFIX.pack(
            WIRE_MAGIC, WIRE_VERSION, _KIND_CODES[kind], 0, 0, zlib.crc32(body), len(body)
        )
    except struct.error as exc:
        raise WireError(f"a field does not fit its wire slot: {exc}") from None
    return prefix + body


def _decode_json(raw: bytes, what: str) -> dict[str, Any]:
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise WireError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise WireError(f"{what} must decode to an object, got {type(value).__name__}")
    return value


def decode_frame(data: bytes) -> DecodedFrame:
    """Parse and validate one encoded frame.

    Raises :class:`~repro.util.errors.WireError` on any malformed input:
    short prefix, bad magic, unsupported version, unknown packet kind,
    truncated body, CRC mismatch, bad skeleton flag, or garbage JSON.
    Trailing bytes after the declared body length are also rejected —
    the caller is expected to hand exactly one frame (stream splitting
    happens a layer above).  The body is walked once by a local offset:
    a field that runs past its end fails the next fixed-size read or
    leaves the walk ending past the body.
    """
    size = len(data)
    if size < FRAME_PREFIX_BYTES:
        raise WireError(f"frame shorter than {FRAME_PREFIX_BYTES}-byte prefix ({size} bytes)")
    magic, version, kind_code, _flags, _reserved, crc, body_len = _PREFIX.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} (expected {WIRE_VERSION})")
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise WireError(f"unknown packet kind code {kind_code}")
    body_bytes = size - FRAME_PREFIX_BYTES
    if body_bytes != body_len:
        raise WireError(f"frame body is {body_bytes} bytes, prefix declared {body_len}")
    body_crc = zlib.crc32(memoryview(data)[FRAME_PREFIX_BYTES:])
    if body_crc != crc:
        raise WireError(f"checksum mismatch (crc32 {body_crc:#010x} != {crc:#010x})")

    unpack_segment = _SEGMENT.unpack_from
    new = tuple.__new__  # a named tuple without its Python-level __new__
    segments = []
    append = segments.append
    try:
        channel_id, src_len, dst_len, meta_len, seg_count = _BODY_HEAD.unpack_from(
            data, FRAME_PREFIX_BYTES
        )
        pos = FRAME_PREFIX_BYTES + _BODY_HEAD.size
        src = data[pos : pos + src_len].decode("utf-8", errors="replace")
        pos += src_len
        dst = data[pos : pos + dst_len].decode("utf-8", errors="replace")
        pos += dst_len
        raw = data[pos : pos + meta_len]
        meta = {} if raw == b"{}" else _decode_json(raw, "meta")
        pos += meta_len
        for _ in range(seg_count):
            message_id, index, flag, offset, length = unpack_segment(data, pos)
            pos += _SEGMENT.size
            skeleton = None
            if flag == 1:
                flow_id, submit, seq, count, ctx_len = _SKELETON.unpack_from(data, pos)
                pos += _SKELETON.size
                end = pos + count * _LAYOUT_ENTRY.size
                layout = tuple(_LAYOUT_ENTRY.iter_unpack(data[pos:end]))
                ctx = _decode_json(data[end : end + ctx_len], "ctx") if ctx_len else {}
                pos = end + ctx_len
                skeleton = new(MessageSkeleton, (flow_id, submit, seq, layout, ctx))
            elif flag:
                raise WireError(f"segment of message {message_id} has skeleton flag {flag}")
            piece = data[pos : pos + length]
            pos += length
            append(new(DecodedSegment, (message_id, index, skeleton, offset, length, piece)))
    except (struct.error, OverflowError) as exc:  # a read past the end, or far past it
        raise WireError(f"truncated frame: {exc}") from None
    if pos != size:
        raise WireError(f"frame body ends at byte {size}, its fields at byte {pos}")
    return DecodedFrame(kind, src, dst, channel_id, meta, tuple(segments))
