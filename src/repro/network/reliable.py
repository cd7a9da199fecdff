"""Reliability protocol: ACK / timeout / retransmit over a faulty fabric.

The base transfer layer assumes a lossless network — every packet a NIC
emits arrives exactly once, in order.  Once a
:class:`~repro.network.faults.FaultPlane` is active that assumption
breaks, so a :class:`ReliableTransport` interposes between the NICs and
the fabric:

* **Sender side** — every packet enters the :class:`SendWindow` of its
  stream (``(src, dst, channel)``): stamped with a sequence number,
  submitted to the fault lottery, and tracked until acknowledged.  A
  retransmit timer with exponential backoff re-sends lost or corrupted
  packets; a bounded retry budget turns a black-holed packet into a loud
  :class:`~repro.util.errors.TransportError` instead of a silent hang.
  When the original rail is down at retransmit time, the attempt **fails
  over** to any surviving NIC on the source node that reaches the
  destination (multirail failover at the transport level).

* **Receiver side** — an endpoint installed as the node's receive guard
  (:meth:`~repro.network.receiver.Receiver.install_guard`) acknowledges
  every intact arrival (duplicates included, so lost ACKs converge),
  discards corrupted copies un-ACKed, and passes the rest through the
  stream's :class:`ReceiveLedger`: retransmissions are deduplicated,
  out-of-order packets held and released to
  :meth:`~repro.network.receiver.Receiver.dispatch` strictly in sequence
  so the messaging layer above never observes loss, duplication, or
  reordering.

The window and the ledger *are* the protocol; this transport is their
carrier over simulated NICs, and the live plane's
:class:`~repro.live.hub.Hub` carries the same two classes over sockets.

Documented simplifications (mirroring the send-side focus of the base
model, DESIGN.md §6): retransmissions and ACKs travel with the link's
latency but do not re-occupy the NIC, and a failed-over retransmission
keeps the timing computed for the original rail.  The engine's
*scheduling* is therefore undisturbed by the reliability machinery; only
delivery, and the counters, change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.network.wire import WirePacket
from repro.sim.engine import Simulator
from repro.util.errors import ConfigurationError, TransportError, read_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import Fabric
    from repro.network.faults import FaultPlane
    from repro.network.nic import NIC

__all__ = [
    "ReliabilityConfig",
    "TransportStats",
    "ReliableTransport",
    "SendWindow",
    "ReceiveLedger",
]


@dataclass(frozen=True, slots=True)
class ReliabilityConfig:
    """Tunables of the ACK/retransmit protocol.

    ``rto`` and ``ack_delay`` default to multiples of each packet's own
    one-way latency (heterogeneous rails get proportionate timeouts);
    set them explicitly to fix absolute values.
    """

    max_retries: int = 10
    rto: float | None = None  #: retransmit timeout; default 4 x one_way
    backoff: float = 2.0  #: timeout multiplier per failed attempt
    ack_delay: float | None = None  #: ACK return latency; default one_way

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.rto is not None and self.rto <= 0:
            raise ConfigurationError(f"rto must be > 0, got {self.rto}")
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")
        if self.ack_delay is not None and self.ack_delay < 0:
            raise ConfigurationError(f"ack_delay must be >= 0, got {self.ack_delay}")

    @classmethod
    def from_spec(cls, spec) -> "ReliabilityConfig":
        """Build from a scenario ``"faults" → "reliability"`` sub-block."""
        return cls(**read_block(spec, cls, "faults.reliability"))

    def rto_for(self, one_way: float, attempts: int) -> float:
        """Timeout for the (attempts+1)-th transmission of a packet."""
        base = self.rto if self.rto is not None else 4.0 * one_way
        return base * self.backoff**attempts

    def ack_delay_for(self, one_way: float) -> float:
        """Latency of the acknowledgement's return trip."""
        return self.ack_delay if self.ack_delay is not None else one_way


@dataclass(slots=True)
class TransportStats:
    """Cumulative reliability counters for one transport instance."""

    packets_sent: int = 0
    retransmits: int = 0
    failovers: int = 0
    exhausted: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    corrupt_discarded: int = 0
    dups_discarded: int = 0
    reorder_held: int = 0
    delivered: int = 0


@dataclass(slots=True)
class _Pending:
    """What the simulated carrier needs to (re)send one packet."""

    packet: WirePacket
    nic: "NIC"  #: rebound when a retransmission fails over
    one_way: float


@dataclass(slots=True)
class _Entry:
    """The window's own record of one unacknowledged item."""

    item: Any
    one_way: float
    attempts: int = 0  #: transmissions the carrier actually made
    timer: Any = None


@dataclass(slots=True)
class SendWindow:
    """The sender half of the protocol, for any carrier on any clock.

    :meth:`send` stamps an item with the next sequence number and runs
    its first attempt.  An attempt hands ``(seq, item, attempt)`` to
    ``carrier`` and arms the retransmit timer on ``clock`` (``schedule``
    / ``cancel``: a :class:`~repro.sim.engine.Simulator` or a
    :class:`~repro.live.loop.LiveClock`).  On expiry the budget is
    checked once: re-attempt with the backed-off timeout, or — after
    ``max_retries + 1`` attempts — forget the item and call
    ``on_exhausted(seq, item, attempts)``.  :meth:`ack` retires an item.

    The carrier returns whether it made the attempt; ``False`` (a live
    link between connections) re-arms the same timeout and spends no
    budget.  ``stats`` counts ``packets_sent`` / ``retransmits`` /
    ``exhausted``.  The simulated :class:`ReliableTransport` (a window
    per stream) and the live :class:`~repro.live.hub.Hub` (one per
    link) are the two carriers.
    """

    clock: Any
    config: ReliabilityConfig
    carrier: Callable[[int, Any, int], bool]
    on_exhausted: Callable[[int, Any, int], None]
    stats: TransportStats
    next_seq: int = 0
    _unacked: dict[int, _Entry] = field(default_factory=dict)

    def send(self, item, one_way: float) -> int:
        """Stamp ``item``, track it, run its first attempt; returns the
        sequence number.  ``one_way`` scales the default timeout."""
        seq = self.next_seq
        self.next_seq += 1
        entry = self._unacked[seq] = _Entry(item, one_way)
        self.stats.packets_sent += 1
        self._attempt(seq, entry)
        return seq

    def _attempt(self, seq: int, entry: _Entry) -> None:
        # Carrier first, timer second: in virtual time an arrival the
        # carrier schedules for the expiry instant must fire before it.
        attempt = entry.attempts
        made = self.carrier(seq, entry.item, attempt)
        entry.timer = self.clock.schedule(
            self.config.rto_for(entry.one_way, attempt), self._expire, seq
        )
        if made:
            entry.attempts += 1
            if attempt:
                self.stats.retransmits += 1

    def _expire(self, seq: int) -> None:
        entry = self._unacked[seq]  # an ACK would have cancelled this timer
        if entry.attempts > self.config.max_retries:
            del self._unacked[seq]
            self.stats.exhausted += 1
            self.on_exhausted(seq, entry.item, entry.attempts)
        else:
            self._attempt(seq, entry)

    def ack(self, seq: int) -> None:
        """Retire one sequence number and cancel its timer (a late ACK
        of something already retired is ignored)."""
        entry = self._unacked.pop(seq, None)
        if entry is not None:
            self.clock.cancel(entry.timer)

    @property
    def in_flight(self) -> int:
        """Stamped but not yet acknowledged."""
        return len(self._unacked)

    def close(self) -> None:
        """Forget every unacknowledged item, cancelling its timer."""
        for entry in self._unacked.values():
            self.clock.cancel(entry.timer)
        self._unacked.clear()


@dataclass(slots=True)
class ReceiveLedger:
    """The receiver half: exactly-once, in-order release.

    :meth:`admit` returns ``None`` for a duplicate (already released or
    already buffered), ``[]`` when the item is held for reordering, and
    the in-sequence run of released items otherwise — counting each
    outcome into ``stats`` (``dups_discarded`` / ``reorder_held`` /
    ``delivered``).  The caller ACKs on any non-crash outcome —
    duplicates included, since the sender may only be retransmitting
    because the previous ACK was lost.
    """

    stats: TransportStats
    expected: int = 0
    _buffer: dict = field(default_factory=dict)

    def admit(self, seq: int, item) -> list | None:
        """Accept one arrival: ``None`` for a duplicate (ACK it anyway —
        the first ACK may have been lost), ``[]`` when held for
        reordering, else the in-sequence run now released."""
        if seq < self.expected or seq in self._buffer:
            self.stats.dups_discarded += 1
            return None
        if seq > self.expected:
            self._buffer[seq] = item
            self.stats.reorder_held += 1
            return []
        released = [item]
        self.expected += 1
        while self.expected in self._buffer:
            released.append(self._buffer.pop(self.expected))
            self.expected += 1
        self.stats.delivered += len(released)
        return released


class ReliableTransport:
    """Cluster-wide reliability layer over a :class:`FaultPlane`.

    One instance serves the whole fabric: sender and receiver state are
    keyed by sequence stream, not by rail, so a single object can
    arbitrate every rail — including cross-rail failover.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: "Fabric",
        plane: "FaultPlane | None" = None,
        config: ReliabilityConfig | None = None,
    ) -> None:
        if plane is None:
            from repro.network.faults import FaultPlane  # faults imports this module

            plane = FaultPlane()
        self._sim = sim
        self._fabric = fabric
        self.plane = plane
        self.config = config if config is not None else ReliabilityConfig()
        self.stats = TransportStats()
        self._tx: dict[tuple[str, str, int], SendWindow] = {}
        self._rx: dict[tuple[str, str, int], ReceiveLedger] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, fabric: "Fabric | None" = None) -> None:
        """Route every NIC through this transport and guard every receiver."""
        fabric = fabric if fabric is not None else self._fabric
        for node in fabric.nodes:
            for nic in node.nics:
                nic.transport = self
            node.receiver.install_guard(self._ingest)

    @property
    def in_flight(self) -> int:
        """Number of packets currently awaiting acknowledgement."""
        return sum(window.in_flight for window in self._tx.values())

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def transmit(self, nic: "NIC", packet: WirePacket, one_way: float) -> None:
        """Take over delivery of one freshly submitted packet.

        Called by :meth:`repro.network.nic.NIC.submit` in place of the
        direct fabric hand-off: the packet enters its stream's
        :class:`SendWindow`, which stamps it and runs the first attempt.
        """
        stream = (packet.src, packet.dst, packet.channel_id)
        window = self._tx.get(stream)
        if window is None:
            window = self._tx[stream] = SendWindow(
                self._sim, self.config, self._send_attempt, self._exhausted, self.stats
            )
        window.send(_Pending(packet, nic, one_way), one_way)

    def _send_attempt(self, seq: int, pending: _Pending, attempt: int) -> bool:
        """The window's carrier: failover, fault lottery, arrival(s)."""
        packet = pending.packet
        tracer = self._sim.tracer
        if attempt == 0:
            packet.meta["rel_seq"] = seq
        else:
            if pending.nic.failed:
                fallback = self._failover_nic(pending)
                if fallback is not None:
                    if tracer.enabled:
                        tracer.emit((
                            self._sim.now, f"rel:{pending.nic.name}", "rel.failover",
                            packet.packet_id, fallback.name,
                        ))
                    pending.nic = fallback
                    self.stats.failovers += 1
            pending.nic.stats.retransmits += 1
            if tracer.enabled:
                tracer.emit((
                    self._sim.now, f"rel:{pending.nic.name}", "rel.retransmit",
                    packet.packet_id, attempt,
                ))
        nic = pending.nic
        if nic.failed:
            # The rail is dark: the attempt is lost outright.  It still
            # counts, so the next expiry gets a chance to fail over (or
            # the rail a chance to recover) before the budget runs out.
            nic.stats.drops += 1
            return True
        verdict = self.plane.judge(nic)
        if verdict.drop:
            nic.stats.drops += 1
            if tracer.enabled:
                tracer.emit((
                    self._sim.now, f"rel:{nic.name}", "rel.drop", packet.packet_id, attempt
                ))
            return True
        if verdict.corrupt:
            nic.stats.corruptions += 1
        self._sim.schedule(
            pending.one_way + verdict.delay,
            self._on_arrival,
            packet,
            nic,
            pending.one_way,
            verdict.corrupt,
        )
        if verdict.duplicate:
            nic.stats.duplicates += 1
            self._sim.schedule(
                pending.one_way + verdict.dup_delay,
                self._on_arrival,
                packet,
                nic,
                pending.one_way,
                verdict.corrupt,
            )
        return True

    def _exhausted(self, seq: int, pending: _Pending, attempts: int) -> None:
        packet = pending.packet
        raise TransportError(
            f"packet #{packet.packet_id} ({packet.kind.value} "
            f"{packet.src}->{packet.dst}) unacknowledged after "
            f"{attempts} attempts on NIC {pending.nic.name!r}"
        )

    def _failover_nic(self, pending: _Pending) -> "NIC | None":
        """First healthy NIC on the source node that reaches the destination."""
        node = self._fabric.node(pending.packet.src)
        for nic in node.nics:
            if not nic.failed and nic is not pending.nic and nic.reaches(pending.packet.dst):
                return nic
        return None

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _on_arrival(
        self, packet: WirePacket, nic: "NIC", one_way: float, corrupt: bool
    ) -> None:
        """One copy of a packet reaching the destination node."""
        if corrupt:
            # Checksum failure: discard without ACK; the retransmit timer
            # will re-send an intact copy.
            self.stats.corrupt_discarded += 1
            return
        self._maybe_ack(packet, nic, one_way)
        self._fabric.node(packet.dst).receiver.deliver(packet)

    def _maybe_ack(self, packet: WirePacket, nic: "NIC", one_way: float) -> None:
        """Acknowledge an intact arrival (the ACK itself may be lost).

        Duplicates are re-ACKed: the sender may be retransmitting only
        because the previous ACK was dropped.
        """
        if self.plane.judge_ack(nic):
            self.stats.acks_dropped += 1
            return
        self.stats.acks_sent += 1
        window = self._tx[(packet.src, packet.dst, packet.channel_id)]
        self._sim.schedule(
            self.config.ack_delay_for(one_way), window.ack, packet.meta["rel_seq"]
        )

    def _ingest(self, packet: WirePacket) -> None:
        """Receive-guard entry: dedup + reorder, then in-sequence dispatch.

        Installed via
        :meth:`~repro.network.receiver.Receiver.install_guard`, so any
        path that delivers to a guarded receiver — transport arrivals or
        a direct ``deliver`` call — gets the same exactly-once, in-order
        contract.
        """
        seq = packet.meta.get("rel_seq")
        receiver = self._fabric.node(packet.dst).receiver
        if seq is None:
            # Unsequenced packet (injected directly in a test): pass through.
            receiver.dispatch(packet)
            return
        stream = (packet.src, packet.dst, packet.channel_id)
        ledger = self._rx.get(stream)
        if ledger is None:
            ledger = self._rx[stream] = ReceiveLedger(self.stats)
        released = ledger.admit(seq, packet)
        if released is None:
            return
        tracer = self._sim.tracer
        if not released:
            if tracer.enabled:
                tracer.emit((
                    self._sim.now, f"rel:{packet.dst}", "reorder.enter",
                    packet.packet_id, packet.src, seq, ledger.expected,
                ))
            return
        if tracer.enabled:
            # released[0] is the arriving packet (never buffered); any
            # trailing packets sat in the reorder buffer until now.
            for ready in released[1:]:
                tracer.emit((
                    self._sim.now, f"rel:{packet.dst}", "reorder.release",
                    ready.packet_id, ready.src,
                ))
        for ready in released:
            receiver.dispatch(ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReliableTransport(in_flight={self.in_flight}, "
            f"retransmits={self.stats.retransmits}, failovers={self.stats.failovers})"
        )
