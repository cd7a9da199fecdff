"""Receiver-side packet demultiplexing.

One :class:`Receiver` per node.  It implements the receive half of the
transfer layer: route control packets (rendezvous handshake, signalling)
to protocol handlers, and data packets to the per-channel sink installed
by the messaging layer — the "help the receiver in sorting out the
incoming packets" role that channel assignment buys (paper §2).

Payload reassembly is *not* done here; it belongs to
:class:`repro.madeleine.rx.MessageReassembler`, which registers itself
as a channel sink.

When a :class:`~repro.network.reliable.ReliableTransport` is active it
installs a *guard* (:meth:`Receiver.install_guard`) that intercepts
arrivals before demultiplexing — deduplicating retransmissions and
holding out-of-order packets in a reorder buffer — and feeds packets to
:meth:`Receiver.dispatch` once they are clean and in sequence.
"""

from __future__ import annotations

from typing import Callable

from repro.network.wire import META_CORR, PacketKind, WirePacket
from repro.sim.engine import Simulator
from repro.util.errors import ProtocolError

__all__ = ["Receiver"]

#: Signature of a data sink: (packet) -> None, called at delivery time.
DataSink = Callable[[WirePacket], None]
#: Signature of a control handler: (packet) -> None.
ControlHandler = Callable[[WirePacket], None]


class Receiver:
    """Demultiplexes packets delivered to one node."""

    def __init__(self, sim: Simulator, node_name: str) -> None:
        self._sim = sim
        self.node_name = node_name
        self._sinks: dict[int, DataSink] = {}
        self._default_sink: DataSink | None = None
        self._control_handlers: dict[PacketKind, ControlHandler] = {}
        self._guard: DataSink | None = None
        self.packets_received = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_sink(self, channel_id: int, sink: DataSink) -> None:
        """Install the data sink for one channel (at most one per channel)."""
        if channel_id in self._sinks:
            raise ProtocolError(
                f"channel {channel_id} already has a sink on node {self.node_name!r}"
            )
        self._sinks[channel_id] = sink

    def register_default_sink(self, sink: DataSink) -> None:
        """Install a catch-all data sink for channels with no specific one."""
        self._default_sink = sink

    def register_control_handler(self, kind: PacketKind, handler: ControlHandler) -> None:
        """Install the handler for one control packet kind."""
        if not kind.is_control:
            raise ProtocolError(f"{kind} is not a control packet kind")
        if kind in self._control_handlers:
            raise ProtocolError(
                f"{kind} already has a handler on node {self.node_name!r}"
            )
        self._control_handlers[kind] = handler

    def install_guard(self, guard: DataSink) -> None:
        """Interpose ``guard`` between arrival and demultiplexing.

        The guard receives every packet addressed to this node and is
        responsible for eventually calling :meth:`dispatch` (possibly
        later, possibly never for duplicates).  At most one guard may be
        installed per receiver.
        """
        if self._guard is not None:
            raise ProtocolError(
                f"node {self.node_name!r} already has a receive guard installed"
            )
        self._guard = guard

    # ------------------------------------------------------------------
    # delivery (called by the fabric at arrival time)
    # ------------------------------------------------------------------
    def deliver(self, packet: WirePacket) -> None:
        """Accept one arrived packet (guard first, then demultiplex)."""
        if packet.dst != self.node_name:
            raise ProtocolError(
                f"packet for {packet.dst!r} delivered to node {self.node_name!r}"
            )
        if self._guard is not None:
            self._guard(packet)
            return
        self.dispatch(packet)

    def dispatch(self, packet: WirePacket) -> None:
        """Demultiplex one clean, in-sequence packet to its handler/sink."""
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.emit((
                self._sim.now, f"rx:{self.node_name}", "rx.deliver",
                packet.packet_id, packet.kind.value, packet.channel_id,
                packet.payload_bytes, packet.src, packet.meta.get(META_CORR),
            ))
        if packet.kind.is_control:
            handler = self._control_handlers.get(packet.kind)
            if handler is None:
                raise ProtocolError(
                    f"no handler for {packet.kind} on node {self.node_name!r}"
                )
            handler(packet)
            return
        sink = self._sinks.get(packet.channel_id, self._default_sink)
        if sink is None:
            raise ProtocolError(
                f"no sink for channel {packet.channel_id} on node {self.node_name!r}"
            )
        sink(packet)
