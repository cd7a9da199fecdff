"""One live peer process: a single node of the engine stack over sockets.

Run as ``python -m repro.live.peer`` by the coordinator
(:mod:`repro.live.cluster`); never started by hand.  The peer speaks a
JSON-lines control protocol on stdin/stdout::

    CONFIG  -> READY {endpoint}          build the stack, bind a server
    MESH    -> MESH_OK                   connect to lower ranks, await rest
    START   -> STARTED                   install workload apps
    STATUS  -> STATUS {quiet, counters}  quiescence polling
    FLUSH   -> FLUSHED {events, metrics} drain trace spool + registry snapshot
    STOP    -> REPORT {...}              final records + counters, then exit

Inside, the peer runs the *same* stack the simulated
:class:`~repro.runtime.cluster.Cluster` runs, built by the same code:
the scenario is read by :func:`~repro.runtime.scenario.parse_cluster`
and :func:`~repro.runtime.scenario.build_workloads`, and everything
above the NICs of the local node comes from
:func:`~repro.runtime.cluster.build_node_stack`.  What the peer builds
itself is its transfer layer — :class:`~repro.live.nic.LiveNIC`\\ s whose
idle transition is a socket-drain event, on a :class:`Hub` of sockets,
timed by a :class:`~repro.live.loop.LiveClock` over asyncio.

**Every peer builds the flow table, each peer runs its own half.**
Every peer installs the *entire* scenario, so every flow of every app
is opened — at START, in the same order, before any traffic — and the
run-scoped flow counter (``sim.ids``) assigns identical ids on every
peer: that is what lets a wire descriptor's ``flow`` field resolve to
the right local :class:`~repro.madeleine.message.Flow` object.  But a
workload process is started only on the peer that owns its node
(:meth:`~repro.middleware.base.AppBase.spawn`); a remote node has a
:class:`~repro.madeleine.api.MadAPI` to open flows on and no engine
behind it.  Global termination is detected by counter agreement
(messages submitted == deliveries acknowledged), not by app completion.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import traceback
from collections import deque
from dataclasses import fields, replace
from functools import partial
from typing import Any, Callable

from repro.madeleine.api import MadAPI
from repro.madeleine.message import Flow, Message
from repro.madeleine.rx import MessageReassembler
from repro.network.fabric import Node
from repro.network.reliable import ReceiveLedger, SendWindow, TransportStats
from repro.network.technologies import TECHNOLOGIES
from repro.network.wire import META_CORR, META_SENT_AT, META_VIA
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.runtime.cluster import build_node_stack, install_tuner
from repro.runtime.metrics import MetricsCollector, stats_row
from repro.runtime.scenario import build_workloads, parse_cluster
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.rng import SeedSequenceRegistry
from repro.util.tracing import Tracer, event_to_dict

from repro.live.chaos import NOMINAL_ONE_WAY, ChaosConfig, ChaosInjector, ChaosStats
from repro.live.liveness import Backoff, HeartbeatLedger
from repro.live.loop import LiveClock
from repro.live.nic import LiveNIC
from repro.live.observe import LiveSampler, SpoolSink
from repro.live.transport import (
    MirrorReceiver,
    StreamDecoder,
    ack_frame,
    done_frame,
    heartbeat_frame,
    hello_frame,
    live_ctrl_kind,
    wrap_envelope,
)

__all__ = ["LivePeer", "main"]

_READ_CHUNK = 1 << 16

#: Default flight-recorder window when the scenario does not size one.
#: Unlike the old hard REPORT cap, this never truncates what the
#: coordinator sees — streaming flushes carry the full event stream —
#: it only bounds the in-peer crash recorder.
_RING_DEFAULT = 50_000


def _outage_matches(outage, nic) -> bool:
    """Whether one scheduled outage targets one local live NIC.

    Live NICs are named ``<node>.<tech><net_index><nic_index>`` (e.g.
    ``n0.mx00``); an outage's ``nic`` must match the full name, while
    ``network`` matches the sim-plane network prefix (``mx0`` hits
    ``n0.mx00`` and ``n0.mx01`` on every node).
    """
    if outage.nic is not None:
        return nic.name == outage.nic
    _node, tech_part = nic.name.split(".", 1)
    return tech_part.startswith(str(outage.network))


# --------------------------------------------------------------------------
# socket hub: the peer's connections to every other peer
# --------------------------------------------------------------------------


class _ChaosDisconnect(Exception):
    """Deliberate chaos-injected hard close of one connection."""


class _Connection:
    """One socket to one peer: a single pump task + a reader task.

    asyncio's ``StreamWriter.drain`` supports exactly one concurrent
    waiter, so all outbound records funnel through one pump coroutine;
    NIC submits enqueue ``(bytes, on_drained)`` and the pump invokes the
    callback once the kernel accepted every byte (write-buffer high-water
    mark is 0, so ``drain`` returning *means* drained).

    Connections are disposable: any socket error, EOF, or injected
    disconnect routes through :meth:`Hub.conn_failed`, which flushes
    every queued write (releasing the NICs that are waiting on drains)
    and lets the owning link decide whether to redial.  ``counted``
    distinguishes run traffic (blocks quiescence until drained) from
    liveness beacons (heartbeats must never hold a quiet verdict open).
    """

    def __init__(self, hub: "Hub", reader, writer, name: str | None) -> None:
        self.hub = hub
        self.reader = reader
        self.writer = writer
        self.name = name  # peer node name; None until its HELLO arrives
        # Skipping a bad record is only sound when a retransmit recovers it.
        self.decoder = StreamDecoder(tolerant=hub.reliable)
        self.outbound: deque[tuple[bytes | None, Callable[[], None] | None, bool]] = (
            deque()
        )
        self.failed = False
        self._current: tuple[Callable[[], None] | None, bool] | None = None
        self._wake = asyncio.Event()
        writer.transport.set_write_buffer_limits(0)
        self._tasks = [
            asyncio.ensure_future(self._pump()),
            asyncio.ensure_future(self._read()),
        ]

    def enqueue(
        self,
        data: bytes,
        on_drained: Callable[[], None] | None,
        counted: bool = True,
    ) -> None:
        if self.failed:
            self.hub.flush_write(on_drained)
            return
        self.outbound.append((data, on_drained, counted))
        if counted:
            self.hub.writes_in_flight += 1
        self._wake.set()

    def request_close(self) -> None:
        """Chaos disconnect: hard-close once everything queued so far is out."""
        if not self.failed:
            self.outbound.append((None, None, False))
            self._wake.set()

    async def _pump(self) -> None:
        try:
            while True:
                while not self.outbound:
                    self._wake.clear()
                    await self._wake.wait()
                data, on_drained, counted = self.outbound.popleft()
                if data is None:
                    raise _ChaosDisconnect
                self._current = (on_drained, counted)
                self.writer.write(data)
                await self.writer.drain()
                self.hub.bytes_tx += len(data)
                self.hub.clock.refresh()
                if counted:
                    self.hub.writes_in_flight -= 1
                self._current = None
                if on_drained is not None:
                    on_drained()
        except asyncio.CancelledError:
            pass
        except (_ChaosDisconnect, ConnectionError, OSError):
            self.hub.conn_failed(self)
        except Exception:  # pragma: no cover - surfaced via STATUS
            self.hub.note_fatal(traceback.format_exc())
            self.hub.conn_failed(self)

    async def _read(self) -> None:
        try:
            while True:
                chunk = await self.reader.read(_READ_CHUNK)
                if not chunk:
                    self.hub.conn_failed(self)
                    return
                self.hub.bytes_rx += len(chunk)
                self.hub.clock.refresh()
                self.hub.ingest(self, self.decoder.feed(chunk))
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            self.hub.conn_failed(self)
        except Exception:  # pragma: no cover - surfaced via STATUS
            self.hub.note_fatal(traceback.format_exc())
            self.hub.conn_failed(self)

    def abort(self) -> None:
        """Flush every queued write and release the socket.  Idempotent."""
        if self.failed:
            return
        self.failed = True
        if self._current is not None:
            on_drained, counted = self._current
            self._current = None
            if counted:
                self.hub.writes_in_flight -= 1
            self.hub.flush_write(on_drained)
        while self.outbound:
            data, on_drained, counted = self.outbound.popleft()
            if data is None:
                continue
            if counted:
                self.hub.writes_in_flight -= 1
            self.hub.flush_write(on_drained)
        self.hub.corrupt_frames_closed += self.decoder.corrupt_frames
        for task in self._tasks:
            task.cancel()
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


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
    protocol.  With a :class:`~repro.live.chaos.ChaosConfig` whose wire
    faults are active (:attr:`reliable`), data and DONE frames go
    through each link's :class:`~repro.network.reliable.SendWindow`
    (sequenced, retransmitted on RTO until ACKed) and
    :class:`~repro.network.reliable.ReceiveLedger` (deduplicated,
    released in order), so injected drops, corruption, duplication and
    disconnects still yield byte-identical delivery.  Without it every
    record is sent ``TAG_RAW`` in the same record format — TCP/UDS
    loopback is already reliable.
    """

    def __init__(
        self,
        clock: LiveClock,
        node_name: str,
        rank: int,
        deliver,
        names: list[str] | None = None,
        chaos: "ChaosConfig | None" = None,
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
        self.bytes_tx = 0
        self.bytes_rx = 0
        #: Locally submitted messages awaiting a DONE acknowledgement.
        self.sent_messages: dict[int, Message] = {}
        self.submitted = 0
        self.done_sent = 0
        self.done_received = 0
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
        if transport == "uds":
            path = f"{workdir}/p{self.rank}.sock"
            self._server = await asyncio.start_unix_server(self._on_accept, path=path)
            return {"kind": "uds", "path": path}
        if transport == "tcp":
            self._server = await asyncio.start_server(self._on_accept, "127.0.0.1", 0)
            host, port = self._server.sockets[0].getsockname()[:2]
            return {"kind": "tcp", "host": host, "port": port}
        raise ConfigurationError(f"unknown live transport {transport!r}")

    def _on_accept(self, reader, writer) -> None:
        self._anonymous.append(_Connection(self, reader, writer, None))

    async def _open(self, endpoint: dict[str, Any]):
        if endpoint["kind"] == "uds":
            return await asyncio.open_unix_connection(endpoint["path"])
        return await asyncio.open_connection(endpoint["host"], endpoint["port"])

    async def connect(self, peer_name: str, endpoint: dict[str, Any]) -> None:
        """Dial one peer's endpoint and introduce ourselves with a HELLO."""
        link = self.links[peer_name]
        link.endpoint = endpoint
        self._dialed(link, *await self._open(endpoint))

    def _dialed(self, link: "_Link", reader, writer) -> None:
        conn = _Connection(self, reader, writer, link.name)
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
            reader, writer = await self._open(link.endpoint)
        except OSError:
            self._schedule_redial(link)
            return
        if link.dead or self.closing or link.writable:
            writer.close()
            return
        self._dialed(link, reader, writer)

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
        self._send(link, data, on_drained)

    def send_done(self, dst: str, message_id: int, when: float) -> None:
        """Acknowledge a completed delivery back to its sender."""
        link = self.links.get(dst)
        if link is None:
            raise ProtocolError(f"cannot acknowledge to unknown peer {dst!r}")
        if link.dead:
            self.done_suppressed += 1
            return
        self.done_sent += 1
        self.done_by_dst[dst] = self.done_by_dst.get(dst, 0) + 1
        self._send(link, done_frame(self.node_name, dst, [(message_id, when)]), None)

    def _send(self, link: _Link, frame: bytes, on_drained) -> None:
        """The one send path for data and DONE frames.

        Under reliability the link's window stamps, attempts (through
        :meth:`_carry`) and retransmits.  Otherwise the frame is written
        once, ``TAG_RAW``; on a lost connection the bytes are simply
        gone — counted loudly, counter agreement will stall and the
        coordinator's deadline or watchdog decides.
        """
        if self.reliable:
            link.window.send(_Outbound(frame, on_drained), NOMINAL_ONE_WAY)
        elif link.writable:
            link.conn.enqueue(wrap_envelope(frame), on_drained)
        else:
            self.lost_frames += 1
            self.flush_write(on_drained)

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
        subject to the ACK-loss lottery.  Any traffic at all refreshes
        the sender's heartbeat ledger entry; a busy link needs no
        beacons.
        """
        if self.hb is not None and conn.name is not None:
            self.hb.record(conn.name, self.clock.refresh())
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
            for message_id, when in frame.meta.get("items", ()):
                message = self.sent_messages.pop(message_id, None)
                if message is None:
                    continue  # duplicate/late DONE: already accounted
                self.done_received += 1
                self.done_rx_by_src[frame.src] = (
                    self.done_rx_by_src.get(frame.src, 0) + 1
                )
                if not message.completion.done:
                    message.completion.resolve(float(when))
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


# --------------------------------------------------------------------------
# the engine stack, assembled for one node
# --------------------------------------------------------------------------


#: Every counter the socket plane keeps for one peer, declared once as
#: ``(report key, getter(peer), metric name or None, metric help)``.
#: ``report()["transport"]`` carries every row under its key, STATUS the
#: rows named in ``_STATUS_KEYS``, and ``_mirror_live_metrics`` mirrors
#: the rows that name a metric into the registry.
_TRANSPORT_COUNTERS = (
    ("bytes_tx", lambda p: p.hub.bytes_tx,
     "repro_live_bytes_tx_total", "Bytes written to peer sockets"),
    ("bytes_rx", lambda p: p.hub.bytes_rx,
     "repro_live_bytes_rx_total", "Bytes read from peer sockets"),
    ("bytes_verified", lambda p: p.mirror.bytes_verified,
     "repro_live_bytes_verified_total",
     "Payload bytes checked against the sender's pattern"),
    ("corrupt_slices", lambda p: p.mirror.corrupt_slices,
     "repro_live_corrupt_slices_total", "Payload slices that failed verification"),
    ("submitted", lambda p: p.hub.submitted, None, ""),
    ("done_sent", lambda p: p.hub.done_sent, None, ""),
    ("done_received", lambda p: p.hub.done_received, None, ""),
    ("abandoned", lambda p: p.hub.abandoned,
     "repro_live_abandoned_messages_total",
     "Submitted messages abandoned because their destination died"),
    ("blackholed", lambda p: p.hub.blackholed,
     "repro_live_blackholed_total", "Packets addressed to a declared-dead peer"),
    ("done_suppressed", lambda p: p.hub.done_suppressed, None, ""),
    ("done_by_dst", lambda p: dict(p.hub.done_by_dst), None, ""),
    ("done_rx_by_src", lambda p: dict(p.hub.done_rx_by_src), None, ""),
    ("retransmits", lambda p: p.hub.stats.retransmits,
     "repro_live_retransmits_total", "Enveloped records re-sent after an RTO expiry"),
    ("dups_discarded", lambda p: p.hub.stats.dups_discarded,
     "repro_live_dups_discarded_total",
     "Duplicate enveloped records dropped by the receive ledger"),
    ("reorder_held", lambda p: p.hub.stats.reorder_held, None, ""),
    ("acks_sent", lambda p: p.hub.stats.acks_sent, None, ""),
    ("acks_dropped", lambda p: p.hub.stats.acks_dropped, None, ""),
    ("exhausted", lambda p: p.hub.stats.exhausted, None, ""),
    ("corrupt_frames", lambda p: p.hub.corrupt_frames,
     "repro_live_corrupt_frames_total",
     "Records discarded by the tolerant stream decoders"),
    ("reconnects", lambda p: p.hub.reconnects,
     "repro_live_reconnects_total", "Peer connections re-established after a loss"),
    ("disconnects", lambda p: p.hub.disconnects,
     "repro_live_disconnects_total",
     "Peer connections lost (EOF, error, or injected close)"),
    ("heartbeats_sent", lambda p: p.hub.heartbeats_sent,
     "repro_live_heartbeats_sent_total", "Liveness beacons written to peer sockets"),
    ("lost_frames", lambda p: p.hub.lost_frames, None, ""),
    ("dead", lambda p: sorted(p.hub.dead_nodes), None, ""),
)
_STATUS_KEYS = frozenset(
    {"submitted", "done_sent", "done_received", "abandoned",
     "done_by_dst", "done_rx_by_src", "dead"}
)


class LivePeer:
    """Everything one peer process owns; driven by the control protocol.

    The peer is also the *cluster* of this process: it carries the
    attributes of :class:`~repro.runtime.cluster.Cluster` that the
    observability plane, the sampler, the tuner and the workload apps
    read (``sim``, ``nodes``, ``engines``, ``reassemblers``, ``apis``,
    ``transport``, ``engine_kind``, ``api()``, ``stream()``), holding
    the one local node — so each of them is installed on the peer
    exactly as it is installed on a simulated cluster.
    """

    def __init__(self, config: dict[str, Any]) -> None:
        scenario = config["scenario"]
        spec = parse_cluster(scenario)
        self.rank = int(config["rank"])
        self.scenario = scenario
        self.names = [f"n{i}" for i in range(int(config["n_nodes"]))]
        self.local = self.names[self.rank]
        self.timeout = float(config.get("timeout", 60.0))
        faults_spec = scenario.get("faults")
        self.chaos: ChaosConfig | None = (
            ChaosConfig.from_spec(faults_spec, default_seed=int(spec["seed"]))
            if faults_spec
            else None
        )

        obs_spec = dict(config.get("observability") or {})
        obs_spec.setdefault("trace", bool(config.get("trace")))
        self.obs_config = ObservabilityConfig.from_spec(obs_spec)

        self.tracer = Tracer()
        loop = asyncio.get_running_loop()
        # ``sim`` is the name the clock goes by on a cluster.
        self.clock = self.sim = LiveClock(
            loop,
            epoch=float(config["epoch"]),
            time_scale=float(config.get("time_scale", 1.0)),
            tracer=self.tracer,
        )
        self.hub = Hub(
            self.clock,
            self.local,
            self.rank,
            self._deliver_frame,
            names=self.names,
            chaos=self.chaos,
        )
        #: The socket hub when chaos/reliability is active — it exposes
        #: the ``stats.retransmits`` / ``in_flight`` surface of the
        #: simulated :class:`~repro.network.reliable.ReliableTransport`.
        #: Without chaos the plain TCP/UDS stream *is* the reliability
        #: layer and the gauges read 0 by design.
        self.transport = self.hub if self.hub.reliable else None
        self.rng = SeedSequenceRegistry(spec["seed"])
        #: Flow id -> ``Flow``, for every flow of the scenario (filled
        #: at START: installing the apps opens all of them).
        self.flows: dict[int, Flow] = {}
        self.mirror = MirrorReceiver(self.local, self.flows.get)
        self.metrics = MetricsCollector()
        self.apps: list = []
        self._apps_installed = False
        #: Data frames that raced ahead of this peer's START (see
        #: ``_deliver_frame``); replayed once the flows exist.
        self._pre_start_frames: list = []
        self._build_stack(spec)
        self._install_observability()
        # Tuner counters ride the FLUSH registry snapshots as
        # ``repro_tuner_*`` metrics and feed the coordinator's ``/tuner``.
        self.tuner = install_tuner(self, scenario.get("tuner"))

    # -- the Cluster accessors workload apps call ----------------------
    def api(self, node_name: str) -> MadAPI:
        """The packing API of one node (engine-less for remote nodes)."""
        return self.apis[node_name]

    def stream(self, name: str):
        """A named deterministic RNG stream."""
        return self.rng.stream(name)

    def _install_observability(self) -> None:
        """Attach the full observability plane to this peer's stack.

        The plane gets a sampler-less config — its base sampler lives on
        the simulator event queue, which on a live clock would pin
        ``pending_timers`` above zero and defeat quiescence detection —
        and a :class:`LiveSampler` is driven off the clock's uncounted
        ``background`` timers instead.
        The spool is the streaming buffer the coordinator drains with
        FLUSH requests; the plane's ring buffer stays as the bounded
        in-process flight recorder.
        """
        ring = self.obs_config.ring_buffer
        self.plane = ObservabilityPlane(
            replace(
                self.obs_config,
                sample_interval=None,
                ring_buffer=ring if ring is not None else _RING_DEFAULT,
            )
        )
        self.plane.install(self)
        self.spool: SpoolSink | None = None
        if self.obs_config.trace:
            self.spool = SpoolSink()
            self.tracer.subscribe(self.spool)
        self.sampler: LiveSampler | None = None
        if self.obs_config.sample_interval is not None:
            self.sampler = LiveSampler(
                self,
                self.obs_config.sample_interval,
                registry=self.plane.registry,
                source=f"obs:{self.local}",
                tail_view=self.plane.tail_view,
            )
        self._flushed = False

    # -- construction --------------------------------------------------
    def _build_stack(self, spec: dict[str, Any]) -> None:
        """The local node: live NICs here, the rest from the shared builder."""
        self.node = Node(self.clock, self.local)
        for i, (tech, per_node) in enumerate(spec["networks"]):
            link = TECHNOLOGIES[tech]()
            for idx in range(per_node):
                self.node.nics.append(
                    LiveNIC(
                        self.clock,
                        f"{self.local}.{tech}{i}{idx}",
                        self.local,
                        link,
                        self.hub.send_packet,
                    )
                )
        self.engine_kind = spec["engine"]
        self.engine, self.reassembler, api = build_node_stack(
            self.clock,
            self.node,
            engine=spec["engine"],
            strategy=spec["strategy"],
            policy=spec["policy"],
            config=spec["config"],
        )
        self.metrics.attach(self.reassembler)
        # Chain-wrap the reassembler's single completion slot: metrics
        # first (records the delivery), then the DONE acknowledgement
        # back to the sender so it can resolve the original message.
        record = self.reassembler.on_message_complete

        def on_complete(message: Message, now: float) -> None:
            record(message, now)
            self.hub.send_done(message.flow.src, message.message_id, now)
            self.mirror.forget(message)

        self.reassembler.on_message_complete = on_complete

        self.nodes = [self.node]
        self.engines = {self.local: self.engine}
        self.reassemblers = {self.local: self.reassembler}
        # Every node gets an API to open its flows on; only the local
        # one has an engine behind it.
        self.apis: dict[str, MadAPI] = {self.local: api}
        for name in self.names:
            if name != self.local:
                self.apis[name] = MadAPI(name, None, MessageReassembler(self.clock, name))

    # -- inbound engine traffic ----------------------------------------
    def _deliver_frame(self, frame) -> None:
        # START is delivered peer by peer, so a fast peer's first data
        # frame can land here before *this* peer has installed its apps
        # (and therefore registered its flows).  Park such frames and
        # replay them from install_apps — decoding one now would die on
        # "unknown flow id".
        if not self._apps_installed:
            self._pre_start_frames.append(frame)
            return
        if self.tracer.enabled and META_CORR in frame.meta:
            # The receive half of a wire crossing: carries the sender's
            # correlation id and clock so the coordinator can match it
            # to the exact nic.send span on the sending peer.
            self.tracer.emit(
                self.clock.now,
                f"live:{self.local}",
                "live.recv",
                corr=frame.meta[META_CORR],
                src=frame.src,
                dst=self.local,
                via=frame.meta.get(META_VIA),
                sent_at=frame.meta.get(META_SENT_AT),
                packet_kind=frame.kind.value,
                segments=len(frame.segments),
                bytes=sum(seg.length for seg in frame.segments),
            )
        packet = self.mirror.packet_from_frame(frame, self.clock.ids.packet())
        self.node.receiver.deliver(packet)

    # -- control-protocol steps ----------------------------------------
    def install_apps(self) -> int:
        """Build and install every scenario workload; returns the count.

        Installation opens every flow of the scenario synchronously (so
        the flow table is complete before any frame is decoded) and
        starts the local node's processes — traffic begins as soon as
        the event loop runs.
        """
        self.apps = build_workloads(self.scenario)
        for app in self.apps:
            app.install(self)
        self.flows.update(
            (flow.flow_id, flow) for api in self.apis.values() for flow in api.flows
        )
        if self.sampler is not None:
            self.sampler.start()
        self._arm_chaos()
        self._apps_installed = True
        if self._pre_start_frames:
            early, self._pre_start_frames = self._pre_start_frames, []
            for frame in early:
                self._deliver_frame(frame)
        return len(self.apps)

    def _arm_chaos(self) -> None:
        """Start heartbeats and schedule outages / the die timer.

        Runs at START (not CONFIG) so every injected event is measured
        from the moment traffic begins.  Outage and die timers are
        ``background`` timers, not counted clock events: a
        scheduled-but-unfired outage must not hold an
        otherwise-finished run open — if the
        workload completes first, the outage simply never happens (the
        simulator, which can fast-forward virtual time, always fires
        them; a wall-clock run cannot).
        """
        chaos = self.chaos
        if chaos is None:
            return
        self.hub.start_heartbeats()
        background = self.clock.background
        for outage in chaos.outages:
            nics = [nic for nic in self.node.nics if _outage_matches(outage, nic)]
            if not nics:
                raise ConfigurationError(
                    f"outage names no local NIC on {self.local!r} "
                    f"(nic={outage.nic!r}, network={outage.network!r}, "
                    f"local: {[n.name for n in self.node.nics]})"
                )
            for nic in nics:
                background(outage.at, nic.fail)
                if outage.recover is not None:
                    background(outage.recover, nic.recover)
        die = chaos.die
        if die is not None and die.rank == self.rank:
            background(die.after, os.kill, os.getpid(), die.signal)

    def mark_dead(self, nodes: list[str]) -> dict[str, int]:
        """React to a ``peer_down`` broadcast from the coordinator.

        Abandons messages destined for the dead nodes, blackholes the
        links, and purges half-reassembled inbound messages whose
        sender died — a partial message that can never complete would
        otherwise pin ``incomplete_messages`` above zero and wedge
        quiescence for the rest of the run.
        """
        abandoned = 0
        purged = 0
        for node in nodes:
            abandoned += self.hub.mark_dead(node)
            purged += self.reassembler.abandon_incomplete(
                lambda message, _src=node: message.flow.src == _src
            )
            self.mirror.forget_from(node)
        return {
            "abandoned": abandoned,
            "purged_partials": purged,
            "dead": sorted(self.hub.dead_nodes),
        }

    @property
    def quiet(self) -> bool:
        """No local activity is pending or in flight.

        The live analogue of an empty simulator event queue: nothing in
        the waiting lists, no hold timer, no handshake awaiting a reply,
        every NIC idle, no half-reassembled message, no armed clock
        timer, no bytes the kernel has not accepted, and no partial
        frame in any stream decoder.  Cross-peer bytes still in flight
        are caught by the coordinator's counter-agreement check, not
        here.
        """
        engine = self.engine
        return (
            engine.backlog == 0
            and not engine.hold_timer_armed
            and engine.rendezvous_in_flight == 0
            and engine.deferred_rendezvous == 0
            # A failed rail is quiescent: its in-flight work was released
            # on fail() and the engine re-routed around it.
            and all(nic.idle or nic.failed for nic in self.node.nics)
            and self.reassembler.incomplete_messages == 0
            and self.clock.pending_timers == 0
            and self.hub.writes_in_flight == 0
            and self.hub.in_flight == 0
            and self.hub.buffered_bytes == 0
        )

    def status(self) -> dict[str, Any]:
        """One STATUS reply: quiescence flag plus delivery counters.

        ``now`` is this peer's clock at reply time; the coordinator
        brackets the request with its own clock readings to estimate the
        peer's offset (round-trip midpoint, see :mod:`repro.obs.merge`).
        """
        now = self.clock.refresh()
        out = {
            "type": "status",
            "quiet": self.quiet,
            "now": now,
            **{
                key: read(self)
                for key, read, _metric, _help in _TRANSPORT_COUNTERS
                if key in _STATUS_KEYS
            },
            "fatal": self.hub.fatal,
        }
        if self.hub.hb is not None:
            out["hb_ages"] = self.hub.hb.ages(now)
        return out

    def flush(self) -> dict[str, Any]:
        """One FLUSH reply: stream everything captured since the last one.

        Drains the spool (trace events) and snapshots the registry, so
        the coordinator's merged view — and its ``/metrics`` endpoint —
        stay current while the run is in flight.  Once any flush has
        happened the final REPORT only carries the tail, never a
        re-send.
        """
        self._flushed = True
        events = self.spool.drain() if self.spool is not None else []
        # set_total is monotonic, so re-mirroring every flush is safe and
        # keeps the in-flight /metrics view from reading all-zero until
        # the final report.
        self._mirror_live_metrics()
        reply = {
            "type": "flushed",
            "node": self.local,
            "now": self.clock.refresh(),
            "events": [event_to_dict(e) for e in events],
            "spool_dropped": self.spool.dropped if self.spool is not None else 0,
            "metrics": self.plane.registry.to_snapshot(),
        }
        if self.plane.tail_exemplars is not None:
            reply["exemplars"] = self.plane.tail_exemplars.snapshot()
        return reply

    def _mirror_live_metrics(self) -> None:
        """Mirror live-plane counters (hub, mirror, spool) into the registry.

        The plane's ``finalize`` covers everything a simulated cluster
        has; these are the extra truths only a socket-backed peer knows.
        """
        registry = self.plane.registry
        labels = {"node": self.local}
        for _key, read, metric, text in _TRANSPORT_COUNTERS:
            if metric is not None:
                registry.counter(metric, labels, help=text).set_total(read(self))
        if self.spool is not None:
            registry.counter(
                "repro_trace_spool_dropped_total",
                labels,
                help="Trace events dropped by the streaming spool",
            ).set_total(self.spool.dropped)
        if self.chaos is not None:
            chaos = self.hub.chaos_stats()
            for key, metric, text in (
                ("drops", "repro_chaos_drops_total", "Records dropped"),
                ("corruptions", "repro_chaos_corruptions_total", "Records corrupted"),
                ("duplicates", "repro_chaos_duplicates_total", "Records duplicated"),
                ("disconnects", "repro_chaos_disconnects_total", "Connections closed"),
            ):
                registry.counter(
                    metric, labels, help=f"{text} by the chaos injectors"
                ).set_total(chaos[key])
        if self.tuner is not None:
            registry.counter(
                "repro_tuner_decisions_total",
                labels,
                help="Decisions observed by the online tuner",
            ).set_total(self.tuner.tuners[self.local].decisions)

    def report(self) -> dict[str, Any]:
        """The final REPORT payload: records, counters, apps, trace."""
        if self.sampler is not None:
            self.sampler.stop()
        self.plane.finalize()
        self._mirror_live_metrics()
        records = [r.to_dict() for r in self.metrics.records]
        nics = [
            {
                "name": nic.name,
                **stats_row(nic.stats),
                "modeled_busy_time": nic.modeled_busy_time,
                "drains": nic.drains,
            }
            for nic in self.node.nics
        ]
        apps = []
        for app in self.apps:
            entry: dict[str, Any] = {"name": app.name, "kind": type(app).__name__}
            rtts = getattr(app, "rtts", None)
            if rtts:
                entry["rtts"] = list(rtts)
            apps.append(entry)
        # Trace tail: everything still in the spool.  When the
        # coordinator streamed with FLUSH this is only the events since
        # the last drain; when it never flushed (legacy path) it is the
        # whole run, bounded solely by the spool capacity — and the
        # drop counters say so honestly instead of silently capping.
        trace_events = self.spool.drain() if self.spool is not None else []
        ring = self.plane.sink
        exemplars = (
            self.plane.tail_exemplars.snapshot()
            if self.plane.tail_exemplars is not None
            else None
        )
        return {
            "type": "report",
            "node": self.local,
            "now": self.clock.refresh(),
            "records": records,
            "engine": stats_row(self.engine.stats),
            "nics": nics,
            "transport": {
                key: read(self) for key, read, _metric, _help in _TRANSPORT_COUNTERS
            },
            "chaos": self.hub.chaos_stats() if self.chaos is not None else None,
            "apps": apps,
            "trace": [event_to_dict(e) for e in trace_events],
            "trace_dropped": self.spool.dropped if self.spool is not None else 0,
            "trace_seen": ring.seen if ring is not None else 0,
            "ring_dropped": ring.dropped if ring is not None else 0,
            "streamed": self._flushed,
            "metrics": self.plane.registry.to_snapshot(),
            "exemplars": exemplars,
            "fatal": self.hub.fatal,
        }


# --------------------------------------------------------------------------
# process entry point
# --------------------------------------------------------------------------


def _reply(obj: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _stdin_reader(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line)
    loop.call_soon_threadsafe(queue.put_nowait, None)


async def _control_loop() -> int:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(target=_stdin_reader, args=(loop, queue), daemon=True).start()

    peer: LivePeer | None = None
    while True:
        line = await queue.get()
        if line is None:
            return 0 if peer is None else 2  # coordinator vanished
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            _reply({"type": "error", "error": f"bad control line: {line!r}"})
            continue
        kind = msg.get("type")
        try:
            if kind == "config":
                peer = LivePeer(msg)
                endpoint = await peer.hub.serve(
                    msg.get("transport", "uds"), msg["workdir"]
                )
                # Belt-and-braces self-destruct if the coordinator never
                # gets to STOP (its own watchdog should fire first).
                loop.call_later(peer.timeout * 1.5, os._exit, 3)
                _reply({"type": "ready", "endpoint": endpoint, "node": peer.local})
            elif kind == "mesh":
                assert peer is not None
                endpoints = msg["endpoints"]
                for rank_str, endpoint in endpoints.items():
                    rank = int(rank_str)
                    if rank < peer.rank:
                        await peer.hub.connect(peer.names[rank], endpoint)
                expected = {n for n in peer.names if n != peer.local}
                await asyncio.wait_for(
                    peer.hub.await_mesh(expected), timeout=peer.timeout
                )
                _reply({"type": "mesh_ok"})
            elif kind == "start":
                assert peer is not None
                count = peer.install_apps()
                _reply({"type": "started", "apps": count})
            elif kind == "status":
                assert peer is not None
                _reply(peer.status())
            elif kind == "peer_down":
                assert peer is not None
                result = peer.mark_dead([str(n) for n in msg.get("nodes", [])])
                _reply({"type": "peer_down_ok", **result})
            elif kind == "flush":
                assert peer is not None
                _reply(peer.flush())
            elif kind == "stop":
                assert peer is not None
                _reply(peer.report())
                peer.hub.close()
                return 0
            else:
                _reply({"type": "error", "error": f"unknown control type {kind!r}"})
        except SystemExit:
            raise
        except BaseException:
            _reply({"type": "error", "error": traceback.format_exc()})
            return 1


def main() -> int:
    """Entry point for ``python -m repro.live.peer``."""
    return asyncio.run(_control_loop())


if __name__ == "__main__":
    sys.exit(main())
