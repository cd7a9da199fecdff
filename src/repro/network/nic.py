"""The NIC busy/idle state machine.

This is the synchronization point the paper's whole design revolves
around (§3): *"the scheduler is not activated each time the application
submits a new packet, but rather when one of the NICs becomes idle"*.
Components subscribe to :meth:`NIC.on_idle`; the optimization engine uses
the callback as its activation trigger, so a backlog naturally
accumulates while a transfer is in flight.

The model is sender-side: a request occupies the sending NIC for
``occupancy`` seconds (computed by the driver from the
:class:`~repro.network.model.LinkModel`), and the packet is delivered to
the destination node ``one_way`` seconds after the request started.
Receive-side NIC occupancy is folded into the model's ``rx_overhead``
(the engine under study only schedules the send side — documented
simplification, DESIGN.md §6).

Fault model (:mod:`repro.network.faults`): a NIC may additionally be
**failed** — a rail outage.  A failed NIC accepts no requests and never
reports idle; a request in flight when the outage hits completes (the
packet already left for the switch), but the idle transition is
suppressed so the rail stays dark until :meth:`NIC.recover`.  Engines
subscribe to :meth:`NIC.on_fail` / :meth:`NIC.on_recover` to re-route
traffic (multirail failover).  When a
:class:`~repro.network.reliable.ReliableTransport` is installed on
``NIC.transport``, delivery is routed through it (fault lottery,
sequencing, retransmission) instead of going straight to the fabric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.network.model import LinkModel
from repro.network.wire import WirePacket
from repro.sim.engine import Simulator
from repro.util.errors import SimulationError
from repro.util.tracing import ABSENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.reliable import ReliableTransport

__all__ = ["NIC", "NicStats", "SERVICE_WINDOW"]

#: Send → idle spans a NIC keeps in :attr:`NIC.service_us`: a p99 over
#: 1,024 spans leaves at least ten samples beyond it.
SERVICE_WINDOW = 1024


@dataclass(slots=True)
class NicStats:
    """Cumulative counters exposed for utilisation metrics."""

    requests: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    busy_time: float = 0.0
    host_time: float = 0.0
    segments: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    #: Fault-plane outcomes attributed to this (sending) NIC.
    drops: int = 0
    corruptions: int = 0
    duplicates: int = 0
    retransmits: int = 0
    failures: int = 0  #: rail outages (``fail()`` transitions)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the NIC spent busy (0 when elapsed=0)."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class NIC:
    """One network interface attached to a node.

    The NIC accepts exactly one outstanding request; submitting while
    busy is a scheduler bug and raises :class:`SimulationError`.  When
    the request's occupancy elapses the NIC (1) hands the packet to the
    delivery function (the fabric routes it to the destination node) and
    (2) fires every ``on_idle`` subscriber — in subscription order — at
    the idle-transition instant.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node_name: str,
        link: LinkModel,
        deliver: Callable[[WirePacket, float], None],
    ) -> None:
        self._sim = sim
        self.name = name
        self.node_name = node_name
        self.link = link
        self._deliver = deliver
        self._busy = False
        self._failed = False
        self._idle_subscribers: list[Callable[["NIC"], None]] = []
        self._fail_subscribers: list[Callable[["NIC"], None]] = []
        self._recover_subscribers: list[Callable[["NIC"], None]] = []
        self.stats = NicStats()
        #: The last :data:`SERVICE_WINDOW` service times (microseconds),
        #: each from a send to the idle transition it ends.  A span cut
        #: by an outage is not service time and is not kept.  Kept here,
        #: not in ``stats``, because reports copy every ``NicStats`` slot.
        self.service_us: deque[float] = deque(maxlen=SERVICE_WINDOW)
        self._sent_at: float | None = None
        #: Set by Network.attach; None for NICs built outside a fabric.
        self.network = None
        #: Reliability layer routing this NIC's deliveries; None = direct.
        self.transport: "ReliableTransport | None" = None

    def reaches(self, node_name: str) -> bool:
        """Whether this NIC's network connects to ``node_name``.

        NICs created without a fabric (unit tests) are permissive.
        """
        if self.network is None:
            return True
        return node_name in self.network.members

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when the NIC can accept a request right now."""
        return not self._busy and not self._failed

    @property
    def failed(self) -> bool:
        """True while a rail outage holds this NIC down."""
        return self._failed

    def on_idle(self, callback: Callable[["NIC"], None]) -> None:
        """Subscribe to idle transitions (the optimizer's trigger)."""
        self._idle_subscribers.append(callback)

    def on_fail(self, callback: Callable[["NIC"], None]) -> None:
        """Subscribe to rail outages (the failover trigger)."""
        self._fail_subscribers.append(callback)

    def on_recover(self, callback: Callable[["NIC"], None]) -> None:
        """Subscribe to rail recoveries."""
        self._recover_subscribers.append(callback)

    # ------------------------------------------------------------------
    # rail outages (driven by the fault plane, or directly in tests)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the rail down.  Idempotent.

        A transfer already occupying the NIC completes — the packet has
        been committed to the switch — but the idle transition that
        would normally refill the NIC is suppressed.
        """
        if self._failed:
            return
        self._failed = True
        self._sent_at = None
        self.stats.failures += 1
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.emit((self._sim.now, f"nic:{self.name}", "nic.fail"))
        for callback in self._fail_subscribers:
            callback(self)

    def recover(self) -> None:
        """Bring the rail back up.  Idempotent."""
        if not self._failed:
            return
        self._failed = False
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.emit((self._sim.now, f"nic:{self.name}", "nic.recover"))
        for callback in self._recover_subscribers:
            callback(self)
            if self._busy or self._failed:
                # A subscriber refilled (or re-failed) the NIC; later
                # subscribers must not act on a stale notification.
                break

    # ------------------------------------------------------------------
    # transfer
    # ------------------------------------------------------------------
    def _admit(
        self, packet: WirePacket, occupancy: float, one_way: float, host_time: float
    ) -> str:
        """Validate one request, go busy, count it; returns the kind label.

        Shared by every NIC type: what differs between them (how busy
        time is accounted, where the bytes go) stays in ``submit``.
        """
        if self._failed:
            raise SimulationError(f"NIC {self.name!r} submit while failed (rail outage)")
        if self._busy:
            raise SimulationError(f"NIC {self.name!r} submit while busy")
        if occupancy <= 0 or one_way < occupancy:
            raise SimulationError(
                f"NIC {self.name!r}: inconsistent timings occupancy={occupancy}, "
                f"one_way={one_way}"
            )
        if packet.src != self.node_name:
            raise SimulationError(
                f"NIC {self.name!r} on node {self.node_name!r} asked to send a "
                f"packet from {packet.src!r}"
            )
        self._busy = True
        self._sent_at = self._sim.now
        self.stats.requests += 1
        self.stats.payload_bytes += packet.payload_bytes
        self.stats.wire_bytes += packet.wire_bytes
        self.stats.host_time += host_time
        self.stats.segments += packet.segment_count
        kind = packet.kind.value
        self.stats.kind_counts[kind] = self.stats.kind_counts.get(kind, 0) + 1
        return kind

    def submit(
        self,
        packet: WirePacket,
        occupancy: float,
        one_way: float,
        host_time: float = 0.0,
    ) -> None:
        """Start one request.

        ``occupancy`` — sender-side busy time; ``one_way`` — delay until
        the packet is delivered to the destination node; ``host_time`` —
        host CPU time the request consumes (accounting only).  All are
        computed by the driver so technology-specific policy stays out of
        the NIC.
        """
        kind = self._admit(packet, occupancy, one_way, host_time)
        self.stats.busy_time += occupancy

        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.emit((
                self._sim.now, f"nic:{self.name}", "nic.send",
                packet.packet_id, kind, packet.payload_bytes, packet.segment_count,
                packet.dst, occupancy, ABSENT, ABSENT,  # live_bytes, corr
            ))
        if self.transport is not None:
            self.transport.transmit(self, packet, one_way)
        else:
            self._sim.schedule(one_way, self._deliver, packet, occupancy)
        self._sim.schedule(occupancy, self._complete)

    def _complete(self) -> None:
        self._busy = False
        if self._failed:
            # Rail went down mid-transfer: the packet made it out, but
            # the NIC must not advertise capacity it no longer has.
            return
        now = self._sim.now
        if self._sent_at is not None:
            self.service_us.append((now - self._sent_at) * 1e6)
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.emit((now, f"nic:{self.name}", "nic.idle"))
        for callback in self._idle_subscribers:
            callback(self)
            if self._busy:
                # An earlier subscriber already refilled the NIC; later
                # subscribers must not see a stale idle notification.
                break

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self._failed else ("idle" if self.idle else "busy")
        return f"NIC({self.name!r}, {self.link.name}, {state})"
