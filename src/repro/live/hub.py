"""The socket hub: one peer's connections to every other peer.

The live transfer layer below the :class:`~repro.live.nic.LiveNIC`\\ s:
a :class:`Hub` of durable links over disposable connections, the
socket *carrier* of the simulator's own reliability protocol
(:class:`~repro.network.reliable.SendWindow` /
:class:`~repro.network.reliable.ReceiveLedger`) and fault lottery
(:class:`~repro.live.chaos.ChaosInjector`), plus what only a real wire
has: byte corruption, disconnect and redial, heartbeats, and the
bookkeeping of a peer declared dead.
"""

from __future__ import annotations

import asyncio
import traceback
from collections import deque
from dataclasses import fields
from functools import partial
from typing import Any, Callable

from repro.madeleine.message import Message
from repro.network.faults import FaultConfig
from repro.network.reliable import ReceiveLedger, SendWindow, TransportStats
from repro.util.errors import ConfigurationError, ProtocolError

from repro.live.chaos import NOMINAL_ONE_WAY, ChaosInjector, ChaosStats
from repro.live.liveness import Backoff, HeartbeatLedger
from repro.live.loop import LiveClock
from repro.live.transport import (
    ENVELOPE_DATA_OFFSET,
    StreamDecoder,
    ack_frame,
    done_frame,
    done_items,
    heartbeat_frame,
    hello_frame,
    live_ctrl_kind,
    wrap_envelope,
)

__all__ = ["Hub"]


class _Connection(asyncio.Protocol):
    """One socket to one peer: one flush per loop turn, no task of its own.

    NIC submits enqueue ``(bytes, on_drained)``; the turn's first record
    arms a ``call_soon`` flush that joins the queue into one
    ``transport.write``.  With a write-buffer limit of 0 a write taken
    whole *is* drained: its callbacks fire at once (never in the submit
    path that queued them) and what they queue is written in the same
    turn.  Only a write the kernel kept part of (``pause_writing``)
    waits, for ``resume_writing``.  Received bytes are decoded and
    ingested in the ``data_received`` callback that read them.

    Connections are disposable: any socket error, EOF, or injected
    disconnect routes through :meth:`Hub.conn_failed`, which flushes
    every queued write (releasing the NICs that are waiting on drains)
    and lets the owning link decide whether to redial.  ``counted``
    distinguishes run traffic (blocks quiescence until drained) from
    liveness beacons (heartbeats must never hold a quiet verdict open).
    """

    def __init__(self, hub: "Hub", name: str | None) -> None:
        self.hub = hub
        self.name = name  # peer node name; None until its HELLO arrives
        # Skipping a bad record is only sound when a retransmit recovers it.
        self.decoder = StreamDecoder(tolerant=hub.reliable)
        #: Queued ``(bytes, on_drained, counted)``; ``None`` bytes: close here.
        self.outbound: deque[tuple] = deque()
        #: Written, not yet released: ``(on_drained, counted)``.
        self._written: deque[tuple] = deque()
        self.failed = False
        self._flushing = False  # a flush is armed, running, or awaiting resume
        self._paused = False

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(0)
        self.hub.conn_made(self)

    def data_received(self, data: bytes) -> None:
        hub = self.hub
        hub.bytes_rx += len(data)
        hub.clock.refresh()
        try:
            hub.ingest(self, self.decoder.feed(data))
        except (ConnectionError, OSError):
            hub.conn_failed(self)
        except Exception:  # pragma: no cover - surfaced via STATUS
            hub.note_fatal(traceback.format_exc())
            hub.conn_failed(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.hub.conn_failed(self)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._flush()

    # -- the write queue -----------------------------------------------
    def enqueue(
        self,
        data: bytes | None,
        on_drained: Callable[[], None] | None,
        counted: bool = True,
    ) -> None:
        if self.failed:
            self.hub.flush_write(on_drained)
            return
        self.outbound.append((data, on_drained, counted))
        if counted:
            self.hub.writes_in_flight += 1
        if not self._flushing:
            self._flushing = True
            self.hub.clock.background(0.0, self._flush)

    def request_close(self) -> None:
        """Chaos disconnect: hard-close once everything queued so far is out."""
        self.enqueue(None, None, counted=False)

    def _flush(self) -> None:
        """Release the last write, then write the queue until a write stalls."""
        hub, outbound, written = self.hub, self.outbound, self._written
        try:
            while True:
                if written:  # the kernel has every byte of the last write
                    hub.clock.refresh()
                    while written:
                        on_drained, counted = written.popleft()
                        if counted:
                            hub.writes_in_flight -= 1
                        if on_drained is not None:
                            on_drained()
                if not outbound or self.failed:
                    break
                if outbound[0][0] is None:  # a chaos close, requested here
                    hub.conn_failed(self)
                    return
                parts = []
                while outbound and outbound[0][0] is not None:
                    data, on_drained, counted = outbound.popleft()
                    parts.append(data)
                    written.append((on_drained, counted))
                if self.transport.is_closing():
                    raise ConnectionResetError("connection lost")
                data = b"".join(parts)
                self.transport.write(data)
                hub.socket_writes += 1
                hub.bytes_tx += len(data)
                if self._paused:
                    return
            self._flushing = False
        except (ConnectionError, OSError):
            hub.conn_failed(self)
        except Exception:  # pragma: no cover - surfaced via STATUS
            hub.note_fatal(traceback.format_exc())
            hub.conn_failed(self)

    def abort(self) -> None:
        """Release every written and queued record and the socket.  Idempotent."""
        if self.failed:
            return
        self.failed = True
        hub = self.hub
        released = list(self._written)
        released += [(fn, counted) for data, fn, counted in self.outbound if data is not None]
        self._written.clear()
        self.outbound.clear()
        for on_drained, counted in released:
            if counted:
                hub.writes_in_flight -= 1
            hub.flush_write(on_drained)
        hub.corrupt_frames_closed += self.decoder.corrupt_frames
        self.transport.close()


class _Outbound:
    """One sequenced frame in a link's send window."""

    __slots__ = ("frame", "on_drained")

    def __init__(self, frame: bytes, on_drained: Callable[[], None] | None) -> None:
        self.frame = frame  # bare wire-codec frame (re-enveloped per attempt)
        self.on_drained = on_drained  # NIC release; taken by the first attempt


class _Link:
    """The durable relationship with one peer node.

    Connections are transient — chaos closes them, peers die and come
    back — but the link persists: under reliability it owns the send
    window and receive ledger (whose sequence space spans reconnects);
    under any chaos, the injector for the outbound direction and the
    redial backoff.  Exactly one
    side of each pair redials (``dial`` — the higher rank, matching the
    MESH bring-up direction) so a flap never produces crossed dials.
    """

    __slots__ = (
        "name",
        "rank",
        "dial",
        "endpoint",
        "conn",
        "dead",
        "ever_connected",
        "window",
        "ledger",
        "injector",
        "backoff",
        "redial_handle",
    )

    def __init__(self, name: str, rank: int, dial: bool) -> None:
        self.name = name
        self.rank = rank
        self.dial = dial
        self.endpoint: dict[str, Any] | None = None
        self.conn: _Connection | None = None
        self.dead = False
        self.ever_connected = False
        self.window: SendWindow | None = None
        self.ledger: ReceiveLedger | None = None
        self.injector: ChaosInjector | None = None
        self.backoff: Backoff | None = None
        self.redial_handle = None

    @property
    def writable(self) -> bool:
        return self.conn is not None and not self.conn.failed


class Hub:
    """All-to-all socket mesh plus sender-side delivery bookkeeping.

    The hub is the socket *carrier* of the simulator's own reliability
    protocol.  With a :class:`~repro.network.faults.FaultConfig` whose
    wire faults are active (:attr:`reliable`), data and DONE frames go
    through each link's :class:`~repro.network.reliable.SendWindow`
    (sequenced, retransmitted on RTO until ACKed) and
    :class:`~repro.network.reliable.ReceiveLedger` (deduplicated,
    released in order), so injected drops, corruption, duplication and
    disconnects still yield byte-identical delivery.  Without it every
    record is sent ``TAG_RAW`` in the same record format — TCP/UDS
    loopback is already reliable.

    Every socket is a :class:`_Connection` protocol built by the loop's
    own server and dialer (``partial(_Connection, hub, name)``); the
    hub runs no task per connection, only one per redial attempt.
    """

    def __init__(
        self,
        clock: LiveClock,
        node_name: str,
        rank: int,
        deliver,
        names: list[str] | None = None,
        chaos: FaultConfig | None = None,
    ) -> None:
        self.clock = clock
        self.node_name = node_name
        self.rank = rank
        self._deliver = deliver  # deliver(frame): engine/data traffic
        self.chaos = chaos
        #: Whether data and DONE frames are sequenced, ACKed and
        #: retransmitted (wire-level chaos is in force).
        self.reliable = chaos is not None and chaos.wire_active
        self.stats = TransportStats()
        self.links: dict[str, _Link] = {}
        for peer_rank, name in enumerate(names or []):
            if name == node_name:
                continue
            link = _Link(name, peer_rank, dial=rank > peer_rank)
            if chaos is not None:
                link.injector = ChaosInjector(chaos, f"{node_name}->{name}")
                link.backoff = Backoff(seed=chaos.seed * 1009 + rank * 37 + peer_rank)
            if self.reliable:
                carry, gave_up = partial(self._carry, link), partial(self._exhausted, link)
                link.window = SendWindow(clock, chaos.reliability, carry, gave_up, self.stats)
                link.ledger = ReceiveLedger(self.stats)
            self.links[name] = link
        self._anonymous: list[_Connection] = []
        self._mesh_ready = asyncio.Event()
        self._expected: set[str] = set()
        self._server = None
        self.closing = False
        self.writes_in_flight = 0
        self.socket_writes = 0  # one per transport.write
        self.bytes_tx = 0
        self.bytes_rx = 0
        #: Locally submitted messages awaiting a DONE acknowledgement.
        self.sent_messages: dict[int, Message] = {}
        self.submitted = 0
        self.done_sent = 0
        self.done_frames_sent = 0
        #: Engine-data records handed to the sockets, envelope included.
        self.data_bytes_sent = 0
        self.done_received = 0
        #: Completions of the chunk being ingested, per sender: one DONE
        #: frame each when :meth:`ingest` flushes.  Empty between chunks.
        self._done_batch: dict[str, list[tuple[int, float]]] = {}
        self._ingesting = False
        #: DONE acknowledgements sent/received, broken down by the far
        #: peer — the coordinator subtracts a dead peer's share from
        #: both sides when checking counter agreement on a degraded run.
        self.done_by_dst: dict[str, int] = {}
        self.done_rx_by_src: dict[str, int] = {}
        self.hb = HeartbeatLedger(chaos.dead_after) if chaos is not None else None
        self.heartbeats_sent = 0
        self.reconnects = 0
        self.disconnects = 0
        self.lost_frames = 0  # lossless runs only: writes on a dead conn
        self.corrupt_frames_closed = 0
        self.abandoned = 0  # messages whose destination peer died
        self._abandoned_ids: set[int] = set()
        self.blackholed = 0  # packets addressed to a declared-dead peer
        self.done_suppressed = 0
        self.dead_nodes: set[str] = set()
        self._hb_handle = None
        self.fatal: str | None = None

    def note_fatal(self, text: str) -> None:
        """Record the first transport fault; surfaced via STATUS polls."""
        if self.fatal is None:
            self.fatal = text

    def flush_write(self, on_drained: Callable[[], None] | None) -> None:
        """Release one queued write whose bytes will never be sent.

        Always deferred to the next loop iteration: the callback
        re-enters the engine (NIC idle → next dispatch) and must never
        run inside the submit path that enqueued the write.
        """
        if on_drained is not None:
            self.clock.background(0.0, on_drained)

    # -- server / mesh -------------------------------------------------
    async def serve(self, transport: str, workdir: str) -> dict[str, Any]:
        """Bind the listening socket; returns the endpoint descriptor."""
        loop, accept = asyncio.get_running_loop(), partial(_Connection, self, None)
        if transport == "uds":
            path = f"{workdir}/p{self.rank}.sock"
            self._server = await loop.create_unix_server(accept, path=path)
            return {"kind": "uds", "path": path}
        if transport == "tcp":
            self._server = await loop.create_server(accept, "127.0.0.1", 0)
            host, port = self._server.sockets[0].getsockname()[:2]
            return {"kind": "tcp", "host": host, "port": port}
        raise ConfigurationError(f"unknown live transport {transport!r}")

    async def connect(self, peer_name: str, endpoint: dict[str, Any]) -> None:
        """Dial one peer's endpoint and introduce ourselves with a HELLO."""
        self.links[peer_name].endpoint = endpoint
        loop, dialed = asyncio.get_running_loop(), partial(_Connection, self, peer_name)
        if endpoint["kind"] == "uds":
            await loop.create_unix_connection(dialed, endpoint["path"])
        else:
            await loop.create_connection(dialed, endpoint["host"], endpoint["port"])

    def conn_made(self, conn: _Connection) -> None:
        """A socket is up: an accepted one waits for its HELLO, a dialed
        one is its link's connection and sends ours."""
        if conn.name is None:
            self._anonymous.append(conn)
            return
        link = self.links[conn.name]
        if link.dead or self.closing or link.writable:  # overtaken while dialing
            conn.abort()
            return
        self._register(link.name, conn)
        conn.enqueue(
            wrap_envelope(hello_frame(self.node_name, self.rank)), None, counted=False
        )

    def _register(self, name: str, conn: _Connection) -> None:
        link = self.links.get(name)
        if link is None:
            raise ProtocolError(f"connection from unknown peer {name!r}")
        conn.name = name
        if conn in self._anonymous:
            self._anonymous.remove(conn)
        if link.dead:
            conn.abort()
            return
        old = link.conn
        if old is not None and old is not conn:
            if self.chaos is None:
                raise ProtocolError(f"duplicate connection from peer {name!r}")
            # Newest wins: the far side gave up on the old socket.
            link.conn = None
            old.abort()
        link.conn = conn
        if link.ever_connected and old is not conn:
            self.reconnects += 1
        link.ever_connected = True
        if link.backoff is not None:
            link.backoff.reset()
        if self._expected and all(
            self.links[n].writable or self.links[n].dead for n in self._expected
        ):
            self._mesh_ready.set()

    async def await_mesh(self, expected: set[str]) -> None:
        """Block until a connection to every expected peer is identified."""
        self._expected = set(expected)
        if all(self.links[n].writable or self.links[n].dead for n in self._expected):
            return
        await self._mesh_ready.wait()

    # -- connection failure / redial -----------------------------------
    def conn_failed(self, conn: _Connection) -> None:
        """One socket died (EOF, error, or injected disconnect).

        Flush its queued writes, detach it from its link, and — when
        chaos is active and this side is the dialer — start the backoff
        redial loop.  Without chaos a lost connection is terminal for
        the pair but silent: teardown closes connections in STOP order,
        so survivors routinely see EOFs that mean "run over", not
        "peer crashed"; the coordinator's watchdog owns that distinction.
        """
        if conn.failed:
            conn.abort()  # no-op, keeps idempotence obvious
            return
        conn.abort()
        if conn in self._anonymous:
            self._anonymous.remove(conn)
            return
        link = self.links.get(conn.name) if conn.name is not None else None
        if link is None or link.conn is not conn:
            return
        link.conn = None
        self.disconnects += 1
        if self.closing or link.dead or self.chaos is None:
            return
        if link.dial and link.endpoint is not None:
            self._schedule_redial(link)

    def _schedule_redial(self, link: _Link) -> None:
        if link.redial_handle is not None or link.dead or self.closing:
            return
        delay = link.backoff.next() if link.backoff is not None else 0.05
        # Redial pacing is wall-clock (hence the division) and must not
        # block quiescence (the unacked windows already do, meaningfully).
        link.redial_handle = self.clock.background(
            delay / self.clock.time_scale, self._start_redial, link
        )

    def _start_redial(self, link: _Link) -> None:
        link.redial_handle = None
        if link.dead or self.closing or link.writable:
            return
        asyncio.ensure_future(self._redial(link))

    async def _redial(self, link: _Link) -> None:
        try:
            await self.connect(link.name, link.endpoint)
        except OSError:
            self._schedule_redial(link)

    # -- sending -------------------------------------------------------
    def send_packet(self, packet, data: bytes, on_drained) -> None:
        """NIC path: ship one engine packet to its destination peer.

        ``data`` is the bare wire-codec frame; the hub owns record
        framing.
        """
        link = self.links.get(packet.dst)
        if link is None:
            raise ProtocolError(
                f"no live connection from {self.node_name!r} to {packet.dst!r}"
            )
        if link.dead:
            # Declared-dead destination: the flow is abandoned, the NIC
            # must still drain or the engine wedges behind it.  A message
            # first seen here was submitted after the death: it is lost
            # without ever being sent, so it counts on both sides of the
            # coordinator's submitted − abandoned == DONE balance.
            self.blackholed += 1
            for segment in packet.segments:
                message_id = segment.payload.message.message_id
                if message_id not in self._abandoned_ids:
                    self._abandoned_ids.add(message_id)
                    self.submitted += 1
                    self.abandoned += 1
            self.flush_write(on_drained)
            return
        for segment in packet.segments:
            message = segment.payload.message
            if message.message_id not in self.sent_messages:
                self.sent_messages[message.message_id] = message
                self.submitted += 1
        if not (self.reliable or link.ever_connected):
            raise ProtocolError(
                f"no live connection from {self.node_name!r} to {packet.dst!r}"
            )
        self._flush_done()  # a reply never overtakes the DONE of its request
        self.data_bytes_sent += self._send(link, data, on_drained)

    def send_done(self, dst: str, message_id: int, when: float) -> None:
        """Acknowledge a completed delivery back to its sender.

        Inside :meth:`ingest` the acknowledgement joins the chunk's
        batch; anywhere else it is sent at once.
        """
        if dst not in self.links:
            raise ProtocolError(f"cannot acknowledge to unknown peer {dst!r}")
        self._done_batch.setdefault(dst, []).append((message_id, when))
        if not self._ingesting:
            self._flush_done()

    def _flush_done(self) -> None:
        """Send every gathered completion, one DONE frame per sender."""
        batch, self._done_batch = self._done_batch, {}
        for dst, items in batch.items():
            link = self.links[dst]
            if link.dead:
                self.done_suppressed += len(items)
                continue
            self.done_sent += len(items)
            self.done_by_dst[dst] = self.done_by_dst.get(dst, 0) + len(items)
            self.done_frames_sent += 1
            self._send(link, done_frame(self.node_name, dst, items), None)

    def _send(self, link: _Link, frame: bytes, on_drained) -> int:
        """The one send path for data and DONE frames.

        Under reliability the link's window stamps, attempts (through
        :meth:`_carry`) and retransmits.  Otherwise the frame is written
        once, ``TAG_RAW``; on a lost connection the bytes are simply
        gone — counted loudly, counter agreement will stall and the
        coordinator's deadline or watchdog decides.  Returns the size of
        the record's first transmission (0 when it is lost).
        """
        if self.reliable:
            link.window.send(_Outbound(frame, on_drained), NOMINAL_ONE_WAY)
            return ENVELOPE_DATA_OFFSET + len(frame)
        if link.writable:
            record = wrap_envelope(frame)
            link.conn.enqueue(record, on_drained)
            return len(record)
        self.lost_frames += 1
        self.flush_write(on_drained)
        return 0

    # -- reliability: the socket carrier of the send window -------------
    def _carry(self, link: _Link, seq: int, out: _Outbound, attempt: int) -> bool:
        """One transmission attempt: chaos lottery, then the socket.

        While the link is down nothing is sent and ``False`` tells the
        window so: the record just waits for its timer, which holds
        quiescence open, and a post-reconnect expiry re-ships it.  The
        NIC release fires on the first attempt whatever happens to it;
        a dropped record still occupied the modeled rail.
        """
        on_drained, out.on_drained = out.on_drained, None
        conn = link.conn
        if conn is None or conn.failed:
            self.flush_write(on_drained)
            return False
        verdict = link.injector.judge()
        if verdict.drop:
            self.flush_write(on_drained)
        else:
            record = wrap_envelope(out.frame, seq)
            if verdict.corrupt:
                record = link.injector.corrupt_record(record)
            # A delayed write finding its connection gone is flushed by
            # enqueue() itself, like any other.
            if verdict.delay > 0:
                self.clock.background(verdict.delay, conn.enqueue, record, on_drained)
            else:
                conn.enqueue(record, on_drained)
            if verdict.duplicate:
                dup = wrap_envelope(out.frame, seq)
                if verdict.dup_delay > 0:
                    self.clock.background(verdict.dup_delay, conn.enqueue, dup, None)
                else:
                    conn.enqueue(dup, None)
        if link.injector.should_disconnect():
            conn.request_close()
        return True

    def _exhausted(self, link: _Link, seq: int, out: _Outbound, attempts: int) -> None:
        self.note_fatal(
            f"record seq={seq} to {link.name!r} unacknowledged after "
            f"{attempts} attempts"
        )

    # -- receiving -----------------------------------------------------
    def ingest(self, conn: _Connection, records: list) -> None:
        """Absorb one chunk's decoded ``(seq, frame)`` records from ``conn``.

        Unsequenced records go straight to :meth:`handle_frame`.
        Sequenced ones (reliability only) pass the link's ledger (dedup
        + in-order release) first, and every observed sequence number —
        duplicates included — is acknowledged in one batch per chunk,
        subject to the ACK-loss lottery.  The messages the chunk
        completed are acknowledged the same way: one DONE frame per
        sender, flushed before this returns — or raises — so no
        completion is ever held across an event-loop turn.  Any traffic
        at all refreshes the sender's heartbeat ledger entry; a busy
        link needs no beacons.
        """
        if self.hb is not None and conn.name is not None:
            self.hb.record(conn.name, self.clock.refresh())
        self._ingesting = True
        try:
            self._absorb(conn, records)
        finally:
            self._ingesting = False
            self._flush_done()

    def _absorb(self, conn: _Connection, records: list) -> None:
        seen_seqs: list[int] = []
        for seq, frame in records:
            if seq is None:
                self.handle_frame(frame, conn, sequenced=False)
                continue
            link = self.links.get(conn.name) if conn.name is not None else None
            if link is None or link.ledger is None:
                self.note_fatal(
                    f"sequenced record from {conn.name!r}, which has no ledger "
                    "(unidentified connection, or a lossless run)"
                )
                continue
            seen_seqs.append(seq)
            for ready in link.ledger.admit(seq, frame) or ():
                self.handle_frame(ready, conn, sequenced=True)
        if seen_seqs and not conn.failed:
            link = self.links[conn.name]
            if not link.dead:
                if link.injector.judge_ack():
                    self.stats.acks_dropped += 1
                else:
                    self.stats.acks_sent += 1
                    conn.enqueue(
                        wrap_envelope(ack_frame(self.node_name, conn.name, seen_seqs)),
                        None,
                        counted=False,
                    )

    def handle_frame(self, frame, conn: _Connection, sequenced: bool) -> None:
        """Route one decoded frame: transport control here, data onward.

        HELLO identifies an inbound connection; an ACK retires records
        from the link's window; DONE resolves the acknowledged
        messages' completion futures; everything else is engine traffic
        handed to the node's receiver via ``deliver``.  Under
        reliability, DONE and engine traffic must have come through the
        ledger: an unsequenced copy would bypass exactly-once delivery.
        """
        ctrl = live_ctrl_kind(frame)
        if ctrl == "hello":
            self._register(str(frame.meta["node"]), conn)
            return
        if ctrl == "hb":
            return  # arrival itself refreshed the ledger in ingest()
        if ctrl == "ack":
            link = self.links.get(conn.name) if conn.name is not None else None
            if link is not None and link.window is not None:
                for seq in frame.meta.get("seqs", ()):
                    link.window.ack(int(seq))
            return
        if self.reliable and not sequenced:
            self.note_fatal(
                f"unsequenced non-control frame from {conn.name!r} "
                f"(live_ctrl={ctrl!r})"
            )
            return
        if ctrl == "done":
            for message_id, when in done_items(frame):
                message = self.sent_messages.pop(message_id, None)
                if message is None:
                    continue  # duplicate/late DONE: already accounted
                self.done_received += 1
                self.done_rx_by_src[frame.src] = (
                    self.done_rx_by_src.get(frame.src, 0) + 1
                )
                if not message.completion.done:
                    message.completion.resolve(when)
            return
        self._deliver(frame)

    # -- heartbeats ----------------------------------------------------
    def start_heartbeats(self) -> None:
        """Begin the periodic liveness beacon (chaos runs only)."""
        if self.chaos is None or self._hb_handle is not None:
            return
        self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        self._hb_handle = self.clock.background(
            self.chaos.heartbeat_interval, self._heartbeat_tick
        )

    def _heartbeat_tick(self) -> None:
        if self.closing:
            return
        # Heartbeats bypass the chaos lottery: they are the liveness
        # *probe*, and a probe subject to the fault it measures would
        # conflate wire loss with peer death.
        record = wrap_envelope(heartbeat_frame(self.node_name, self.clock.now))
        for link in self.links.values():
            if link.writable and not link.dead:
                link.conn.enqueue(record, None, counted=False)
                self.heartbeats_sent += 1
        self._arm_heartbeat()

    # -- peer death ----------------------------------------------------
    def mark_dead(self, node: str) -> int:
        """React to the coordinator declaring ``node`` dead.

        Returns the number of locally submitted messages abandoned
        because their destination died.  The link stays dead for the
        rest of the run: no redial, sends blackhole, DONEs to it are
        suppressed, its send window is closed (cancelling the
        retransmit timers that would otherwise hold quiescence open
        forever).
        """
        link = self.links.get(node)
        if link is None or link.dead:
            return 0
        link.dead = True
        self.dead_nodes.add(node)
        if link.redial_handle is not None:
            link.redial_handle.cancel()
            link.redial_handle = None
        if link.window is not None:
            link.window.close()
        if link.conn is not None:
            conn, link.conn = link.conn, None
            conn.abort()
        abandoned = 0
        for message_id, message in list(self.sent_messages.items()):
            if message.flow.dst == node:
                del self.sent_messages[message_id]
                self._abandoned_ids.add(message_id)
                abandoned += 1
        self.abandoned += abandoned
        return abandoned

    # -- quiescence / teardown -----------------------------------------
    @property
    def in_flight(self) -> int:
        """Sequenced records awaiting acknowledgement across all links."""
        return sum(
            link.window.in_flight
            for link in self.links.values()
            if link.window is not None
        )

    @property
    def corrupt_frames(self) -> int:
        """Records the tolerant decoders discarded (chaos corruption)."""
        live = sum(
            link.conn.decoder.corrupt_frames
            for link in self.links.values()
            if link.conn is not None
        )
        live += sum(c.decoder.corrupt_frames for c in self._anonymous)
        return self.corrupt_frames_closed + live

    @property
    def buffered_bytes(self) -> int:
        """Partial frames sitting in any connection's decoder."""
        total = sum(
            link.conn.decoder.buffered
            for link in self.links.values()
            if link.conn is not None
        )
        return total + sum(c.decoder.buffered for c in self._anonymous)

    def chaos_stats(self) -> dict[str, int]:
        """Aggregate injector decisions across every outbound link."""
        out = {field.name: 0 for field in fields(ChaosStats)}
        for link in self.links.values():
            if link.injector is not None:
                for key in out:
                    out[key] += getattr(link.injector.stats, key)
        return out

    def close(self) -> None:
        """Tear down every connection, timer, and the listening server."""
        self.closing = True
        if self._hb_handle is not None:
            self._hb_handle.cancel()
            self._hb_handle = None
        for link in self.links.values():
            if link.redial_handle is not None:
                link.redial_handle.cancel()
                link.redial_handle = None
            if link.window is not None:
                link.window.close()
            if link.conn is not None:
                link.conn.abort()
        for conn in list(self._anonymous):
            conn.abort()
        if self._server is not None:
            self._server.close()
