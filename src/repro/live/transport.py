"""Socket-level framing and the fragment ↔ wire-bytes mapping.

Three layers live here, all shared by the peer processes and the tests:

* **Stream framing** — every socket carries a sequence of
  ``u32 length || u8 tag || [u64 seq] || wire-codec frame`` records
  (:func:`wrap_envelope`), one format for every run.  The wire-codec
  frame is exactly what :func:`repro.network.wire.encode_frame`
  produces (magic, version, CRC-32), so the stream layer only needs to
  split; a :class:`StreamDecoder` is tolerant of arbitrary partial
  reads and rejects oversized or corrupt records with a typed
  :class:`~repro.util.errors.WireError`.

  ``TAG_SEQ`` records carry the per-link reliability sequence number
  the receiving hub deduplicates and reorders on; ``TAG_RAW`` records
  bypass the sequence space.  A lossless run sends everything
  ``TAG_RAW`` (the tag byte is its whole cost); under chaos, engine
  data and DONE acknowledgements are sequenced and only HELLO,
  heartbeats and ACKs stay raw.  A decoder in ``tolerant`` mode counts
  and skips records whose frame fails CRC or envelope validation
  instead of raising — the reliability layer's retransmit path, not
  the decoder, is then responsible for recovery.
* **Deterministic payload bytes** — the simulator moves *sizes*, not
  bytes; the live plane must put real bytes on the wire and prove they
  arrive intact.  Each process hashes one 64 KiB random tile at import;
  a fragment's bytes are that tile, cyclically, from a start mixed from
  ``(sender node, message id, fragment index)`` (:func:`fragment_seed`),
  so a slice is one cut at ``start + offset`` (:func:`payload_bytes`)
  that the receiver checks with one ``bytes`` compare.  The check
  catches any changed byte, a slice shifted within its fragment by
  anything but a multiple of the period, and a slice of another
  fragment whose start differs — all but one pair of starts in 65,536.
* **Mirror reassembly** — on receive, :class:`MirrorReceiver` rebuilds a
  local :class:`~repro.madeleine.message.Message`/``Fragment`` skeleton
  from the binary message skeletons
  (:class:`~repro.network.wire.MessageSkeleton`) and hands a normal
  :class:`~repro.network.wire.WirePacket` to the node's receiver, so the
  existing reassembler, inboxes, subscriptions, and metrics all run
  unmodified.  A mirror is built from the sender's flow id and sequence
  number, so it carries the sender's own ``message_id`` — the id a
  completion is acknowledged under — and its origin is
  ``message.flow.src``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Iterable

from repro.madeleine.message import Flow, Fragment, Message, PackMode
from repro.network.wire import (
    FRAME_PREFIX_BYTES,
    DecodedFrame,
    MessageSkeleton,
    PacketKind,
    WirePacket,
    WireSegment,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ProtocolError, WireError

__all__ = [
    "MAX_FRAME_BYTES",
    "TAG_RAW",
    "TAG_SEQ",
    "ENVELOPE_DATA_OFFSET",
    "ENVELOPE_CRC_OFFSET",
    "StreamDecoder",
    "wrap_envelope",
    "encode_live_packet",
    "hello_frame",
    "done_frame",
    "heartbeat_frame",
    "ack_frame",
    "live_ctrl_kind",
    "MirrorReceiver",
]

#: Upper bound on one framed record; a length prefix beyond this is
#: treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH_PREFIX = struct.Struct("!I")
_SEQ = struct.Struct("!Q")

#: Envelope tags (first body byte of every record).
TAG_RAW = 0  #: unsequenced: everything lossless; HELLO, heartbeat, ACK under chaos
TAG_SEQ = 1  #: sequenced under chaos (engine data, DONE acknowledgements)
_RAW_HEADER = bytes([TAG_RAW])

#: First byte of the wrapped frame inside a sequenced record:
#: length prefix (4) + tag (1) + sequence number (8).
ENVELOPE_DATA_OFFSET = _LENGTH_PREFIX.size + 1 + _SEQ.size

#: First record byte that is covered by the frame CRC: the envelope
#: header plus the frame's own prefix (whose flags/reserved bytes the
#: decoder ignores, and whose CRC/length fields corrupt the frame in
#: detectable but different ways).  Chaos corruption targets offsets at
#: or beyond this, so an injected flip is always *detected* (CRC
#: mismatch → tolerant decoder skips → retransmit) without ever
#: desynchronizing the stream or forging a sequence number.
ENVELOPE_CRC_OFFSET = ENVELOPE_DATA_OFFSET + FRAME_PREFIX_BYTES


def wrap_envelope(frame: bytes, seq: int | None = None) -> bytes:
    """Wrap one wire-codec frame into a stream record.

    ``seq=None`` produces a ``TAG_RAW`` record; otherwise the record is
    ``TAG_SEQ`` and carries the 64-bit per-link sequence number the
    receiving hub deduplicates and reorders on.
    """
    if seq is None:
        header = _RAW_HEADER
    else:
        if seq < 0:
            raise WireError(f"negative reliability sequence number {seq}")
        header = bytes([TAG_SEQ]) + _SEQ.pack(seq)
    length = len(header) + len(frame)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"record of {length} bytes exceeds {MAX_FRAME_BYTES}")
    # Every record of every run passes here: copy the frame once.
    return _LENGTH_PREFIX.pack(length) + header + frame


class StreamDecoder:
    """Incremental splitter: arbitrary byte chunks in, decoded records out.

    ``feed`` never assumes a read boundary lines up with a record — a
    TCP segment may end mid-prefix, mid-header, or mid-payload; the
    remainder is buffered until the next chunk.  It returns
    ``(seq, frame)`` pairs, ``seq`` being ``None`` for ``TAG_RAW``
    records.

    In ``tolerant`` mode (only sound when a retransmit can recover,
    i.e. under reliability) a record whose body fails envelope or CRC
    validation is *counted* (:attr:`corrupt_frames`) and skipped
    instead of raising.  The length prefix itself stays load-bearing
    either way: an implausible length is unrecoverable stream
    corruption.
    """

    __slots__ = ("_buffer", "_tolerant", "corrupt_frames")

    def __init__(self, *, tolerant: bool = False) -> None:
        self._buffer = bytearray()
        self._tolerant = tolerant
        #: Records dropped by tolerant mode (CRC / envelope failures).
        self.corrupt_frames = 0

    @property
    def buffered(self) -> int:
        """Bytes received but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[int | None, DecodedFrame]]:
        """Absorb one chunk; return every ``(seq, frame)`` it completes."""
        self._buffer.extend(data)
        out: list = []
        while True:
            if len(self._buffer) < _LENGTH_PREFIX.size:
                return out
            (length,) = _LENGTH_PREFIX.unpack(self._buffer[: _LENGTH_PREFIX.size])
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"stream declares a {length}-byte frame (max {MAX_FRAME_BYTES}); "
                    "treating as corruption"
                )
            end = _LENGTH_PREFIX.size + length
            if len(self._buffer) < end:
                return out
            body = bytes(self._buffer[_LENGTH_PREFIX.size : end])
            del self._buffer[:end]
            try:
                out.append(self._decode_body(body))
            except WireError:
                if not self._tolerant:
                    raise
                self.corrupt_frames += 1

    @staticmethod
    def _decode_body(body: bytes) -> tuple[int | None, DecodedFrame]:
        if not body:
            raise WireError("empty record")
        tag = body[0]
        if tag == TAG_RAW:
            return None, decode_frame(body[1:])
        if tag == TAG_SEQ:
            if len(body) < 1 + _SEQ.size:
                raise WireError("sequenced record too short for its header")
            (seq,) = _SEQ.unpack_from(body, 1)
            return seq, decode_frame(body[1 + _SEQ.size :])
        raise WireError(f"unknown envelope tag {tag}")


# --------------------------------------------------------------------------
# deterministic payload bytes
# --------------------------------------------------------------------------

#: Bytes after which a fragment's pattern repeats: the random tile's length.
PATTERN_PERIOD = 1 << 16
# The tile twice over, so a slice up to a period long is one cut.
_SOURCE = hashlib.shake_128(b"repro.live payload pattern").digest(PATTERN_PERIOD) * 2
_MIX = 0x9E3779B97F4A7C15  # 2**64 / golden ratio: spreads consecutive ids apart
_STRIDE = 40503  # odd, ≈ period / golden ratio: the next fragment's start


def _seed(node: int, message_id: int, fragment_index: int) -> int:
    """Where a fragment's pattern starts (mod the period); ``node`` is :func:`_node_key`."""
    return ((node ^ message_id) * _MIX >> 40) + fragment_index * _STRIDE


def _cut(position: int, length: int) -> bytes:
    start = position % PATTERN_PERIOD
    if length <= PATTERN_PERIOD:
        return _SOURCE[start : start + length]
    reps = (start + length) // PATTERN_PERIOD + 1
    return (_SOURCE[:PATTERN_PERIOD] * reps)[start : start + length]


def _node_key(src: str) -> int:
    return int.from_bytes(src.encode("utf-8"), "big")


def fragment_seed(src: str, message_id: int, fragment_index: int) -> int:
    """Stable 32-bit seed: where one fragment's pattern starts in the tile."""
    return _seed(_node_key(src), message_id, fragment_index) & 0xFFFFFFFF


def payload_bytes(seed: int, offset: int, length: int) -> bytes:
    """The fragment's bytes over ``[offset, offset + length)``.

    Absolute-offset addressable: the optimizer may split one fragment
    across packets (striping, rendezvous chunking) and each slice must
    be independently generable and verifiable.  The slice is the tile
    cut at ``seed + offset``: no hash, no string, one copy.
    """
    if offset < 0 or length < 0:
        raise WireError(f"negative payload slice ({offset}, {length})")
    return _cut(seed + offset, length)


# --------------------------------------------------------------------------
# outbound: WirePacket → frame bytes
# --------------------------------------------------------------------------


def encode_live_packet(packet: WirePacket) -> bytes:
    """Serialize one engine-produced packet into a wire-codec frame.

    Data segments reference in-process ``Fragment`` objects; each
    becomes a binary segment record plus deterministic pattern bytes for
    the slice.  A message's first segment in the frame carries its
    :class:`~repro.network.wire.MessageSkeleton` (enough for the
    receiver to rebuild it), its later ones none — the frame is atomic
    under its CRC, so the skeleton is always decoded first.
    Control packets (rendezvous handshake) carry their ``meta`` only.
    The hub wraps the frame into a stream record (:func:`wrap_envelope`).
    """
    node = _node_key(packet.src)
    segments = []
    described: set[int] = set()
    for fragment, offset, length in packet.segments:
        if not isinstance(fragment, Fragment):
            raise ProtocolError(
                f"live transport cannot serialize non-fragment payload {fragment!r}"
            )
        message = fragment.message
        message_id = message.message_id
        index = fragment.index
        skeleton = None
        if message_id not in described:
            described.add(message_id)
            layout = [(f.size, f.express) for f in message.fragments]
            submit = message.submit_time or 0.0  # 0.0: not yet flushed
            skeleton = (message.flow.flow_id, submit, message.seq, layout, message.context)
        data = _cut(_seed(node, message_id, index) + offset, length)
        segments.append((message_id, index, skeleton, offset, length, data))
    return encode_frame(
        packet.kind, packet.src, packet.dst, packet.channel_id, packet.meta, segments
    )


# --------------------------------------------------------------------------
# transport-level control frames (never reach the node receiver)
# --------------------------------------------------------------------------


def live_ctrl_kind(frame: DecodedFrame) -> str | None:
    """The transport-control tag of a frame, or None for engine traffic."""
    tag = frame.meta.get("live_ctrl")
    return tag if isinstance(tag, str) else None


def hello_frame(src: str, rank: int) -> bytes:
    """Mesh handshake: identifies the sending peer on a fresh connection."""
    return encode_frame(
        PacketKind.CTRL, src, "*", -1, {"live_ctrl": "hello", "rank": rank, "node": src}
    )


def done_frame(src: str, dst: str, items: Iterable[tuple[int, float]]) -> bytes:
    """Delivery acknowledgement: ``items`` are (sender message id, time).

    Sent receiver → sender when a mirrored message completes, so the
    sender can resolve the original ``Message.completion`` future (the
    live analogue of the simulator resolving it at arrival time).
    """
    return encode_frame(
        PacketKind.CTRL,
        src,
        dst,
        -1,
        {"live_ctrl": "done", "items": [[mid, t] for mid, t in items]},
    )


def heartbeat_frame(src: str, t: float) -> bytes:
    """Peer-to-peer liveness beacon (TAG_RAW; never retransmitted)."""
    return encode_frame(PacketKind.CTRL, src, "*", -1, {"live_ctrl": "hb", "t": t})


def ack_frame(src: str, dst: str, seqs: Iterable[int]) -> bytes:
    """Reliability acknowledgement for a batch of received sequence numbers."""
    return encode_frame(
        PacketKind.CTRL, src, dst, -1, {"live_ctrl": "ack", "seqs": [int(s) for s in seqs]}
    )


# --------------------------------------------------------------------------
# inbound: frame → WirePacket with mirror fragments
# --------------------------------------------------------------------------


class MirrorReceiver:
    """Rebuilds message/fragment skeletons for packets arriving by socket.

    One per peer.  The first slice of an unseen message id creates a
    *mirror* message on the local ``Flow`` object the skeleton's flow
    id names (every peer opens every flow of the scenario at START, in
    the same order, so the ids agree), and every slice is verified
    against the deterministic payload pattern before being handed to
    the node's ordinary receiver.
    """

    def __init__(self, node_name: str, flow_lookup: Callable[[int], Flow | None]) -> None:
        self.node_name = node_name
        self._flow_lookup = flow_lookup
        self._mirrors: dict[int, Message] = {}
        self.bytes_verified = 0
        self.corrupt_slices = 0

    def packet_from_frame(self, frame: DecodedFrame, packet_id: int) -> WirePacket:
        """Reconstruct the data packet the sending engine dispatched.

        ``packet_id`` names the rebuilt packet on *this* peer (the
        sender's own id crosses the wire only as the tracing
        correlation key in ``meta``)."""
        src = frame.src
        node = _node_key(src)
        mirrors = self._mirrors
        new = tuple.__new__
        segments = []
        verified = 0
        for message_id, index, skeleton, offset, length, data in frame.segments:
            message = mirrors.get(message_id)
            if message is None:  # the message's first segment: needs the skeleton
                if skeleton is None:
                    raise WireError(
                        f"segment of message {message_id} has no mirror and no skeleton"
                    )
                message = self._make_mirror(src, message_id, skeleton)
            try:
                fragment = message.fragments[index]
            except IndexError:
                raise WireError(
                    f"fragment index {index} outside mirror layout of "
                    f"{len(message.fragments)} fragment(s)"
                ) from None
            if data != _cut(_seed(node, message_id, index) + offset, length):
                self.bytes_verified += verified
                self.corrupt_slices += 1
                raise WireError(
                    f"payload mismatch on {src}->{self.node_name} "
                    f"msg {message_id} fragment {index} [{offset}, {offset + length})"
                )
            verified += length
            # The decoder bounded offset and length (u64): no re-check.
            segments.append(new(WireSegment, (fragment, offset, length)))
        self.bytes_verified += verified
        return WirePacket(
            kind=frame.kind,
            src=src,
            dst=frame.dst,
            channel_id=frame.channel_id,
            segments=tuple(segments),
            meta=frame.meta,
            packet_id=packet_id,
        )

    def _make_mirror(self, src: str, sender_mid: int, skeleton: MessageSkeleton) -> Message:
        flow_id, submit, seq, layout, ctx = skeleton
        flow = self._flow_lookup(flow_id)
        if flow is None:
            raise ProtocolError(
                f"packet from {src!r} references unknown flow id {flow_id} "
                f"on node {self.node_name!r} (scenario construction out of sync?)"
            )
        if flow.dst != self.node_name:
            raise ProtocolError(
                f"flow {flow.name!r} terminates at {flow.dst!r}, but its data "
                f"arrived at {self.node_name!r}"
            )
        message = Message(flow, ctx, seq=seq)
        if message.message_id != sender_mid:
            raise ProtocolError(
                f"packet from {src!r} names message {sender_mid}, but flow "
                f"{flow.name!r} seq {message.seq} is message {message.message_id}"
            )
        message.submit_time = submit
        # Fragment.__init__ does not append: keep fragments[i].index == i
        # and total_size the sum of the sizes, as add_fragment does.
        fragments = message.fragments
        total = 0
        for index, (size, express) in enumerate(layout):
            fragments.append(Fragment(message, index, size, PackMode.CHEAPER, bool(express)))
            total += size
        message.total_size = total
        self._mirrors[sender_mid] = message
        return message

    def forget(self, message: Message) -> None:
        """Drop bookkeeping for a completed mirror message."""
        self._mirrors.pop(message.message_id, None)

    def forget_from(self, src: str) -> int:
        """Drop every open mirror created for packets from ``src``.

        Called when the coordinator declares ``src`` dead: its half-sent
        messages will never complete and their mirrors would otherwise
        leak for the rest of the run.  Returns the number forgotten.
        """
        doomed = [mid for mid, m in self._mirrors.items() if m.flow.src == src]
        for mid in doomed:
            del self._mirrors[mid]
        return len(doomed)

    @property
    def open_mirrors(self) -> int:
        """Mirror messages created but not yet forgotten."""
        return len(self._mirrors)
