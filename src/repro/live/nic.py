"""A NIC whose busy/idle state machine is a real socket's send buffer.

:class:`LiveNIC` subclasses the simulated :class:`~repro.network.nic.NIC`
and keeps its *entire* contract — same ``submit`` signature the drivers
call, the inherited admission (``NIC._admit``: validation, busy flip,
stats counters), same ``on_idle`` subscription the optimizing engine
uses as its activation trigger, same refill-break semantics in
``_complete``.  What changes is what "busy" means:

* simulated: busy for a *modeled* ``occupancy`` computed from the
  :class:`~repro.network.model.LinkModel`;
* live: busy until the kernel accepted every byte of the encoded packet
  (the asyncio writer's buffer drained with its high-water mark at 0).

The paper's activation discipline — "the scheduler is activated when a
NIC becomes idle" — therefore maps onto the drain event, and the backlog
that accumulates while the socket is back-pressured is exactly the
aggregation opportunity the optimizer exploits.

The driver still computes its modeled ``(occupancy, one_way)`` pair;
``LiveNIC`` records the modeled occupancy separately
(:attr:`modeled_busy_time`) but accounts ``stats.busy_time`` from the
*measured* wall-clock drain time, so NIC utilisation in live reports
reflects reality, not the model.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.network.model import LinkModel
from repro.network.nic import NIC
from repro.network.wire import (
    META_CORR,
    META_SENT_AT,
    META_VIA,
    WirePacket,
    correlation_id,
)
from repro.util.errors import InternalError

from repro.live.loop import LiveClock
from repro.live.transport import encode_live_packet

__all__ = ["LiveNIC"]

#: ``send(packet, encoded_bytes, on_drained)`` — enqueue the bytes for
#: the packet's destination and invoke ``on_drained`` (from the event
#: loop, after a clock refresh) once the kernel has accepted them all.
SendFn = Callable[[WirePacket, bytes, Callable[[], None]], None]


class LiveNIC(NIC):
    """One socket-backed rail of a live peer.

    ``send`` is provided by the peer's connection hub; the NIC neither
    owns nor sees sockets — it sees "bytes accepted" completions, which
    it translates into the idle transitions the engine subscribes to.
    """

    def __init__(
        self,
        clock: LiveClock,
        name: str,
        node_name: str,
        link: LinkModel,
        send: SendFn,
    ) -> None:
        super().__init__(clock, name, node_name, link, self._never_deliver)
        self._send = send
        #: Sum of driver-modeled occupancies, for modeled-vs-measured
        #: comparison in live benchmarks (stats.busy_time is measured).
        self.modeled_busy_time = 0.0
        self.drains = 0

    @staticmethod
    def _never_deliver(packet: WirePacket, occupancy: float) -> None:
        raise InternalError(
            "LiveNIC delivery goes through sockets; the simulated deliver "
            "path must never run"
        )

    def submit(
        self,
        packet: WirePacket,
        occupancy: float,
        one_way: float,
        host_time: float = 0.0,
    ) -> None:
        """Start one request: encode the packet and hand it to the socket.

        The driver-computed ``occupancy``/``one_way`` keep their
        simulated-path validation (a driver emitting nonsense timings is
        a bug worth catching live too) but only feed
        :attr:`modeled_busy_time`; the busy interval ends when the
        kernel drains the bytes, not when a model says so.
        """
        # Stamp the distributed-tracing keys into the wire meta before
        # encoding, so the receiving peer can correlate its frame-decode
        # record with this exact send (and this exact clock reading).
        # Only when tracing: the keys ride the wire, and untraced runs
        # must not pay their encode cost or byte overhead.
        tracer = self._sim.tracer
        corr = None
        if tracer.enabled:
            corr = correlation_id(self.node_name, packet.packet_id)
            packet.meta[META_CORR] = corr
            packet.meta[META_SENT_AT] = self._sim.now
            packet.meta[META_VIA] = self.name
        # Encode before admitting: a serialization error must leave the
        # NIC idle, uncounted and usable.  The frame is bare — the hub
        # owns record framing.
        data = encode_live_packet(packet)
        kind = self._admit(packet, occupancy, one_way, host_time)
        self.modeled_busy_time += occupancy

        if tracer.enabled:
            tracer.emit(
                self._sim.now,
                f"nic:{self.name}",
                "nic.send",
                packet=packet.packet_id,
                packet_kind=kind,
                bytes=packet.payload_bytes,
                segments=packet.segment_count,
                dst=packet.dst,
                occupancy=occupancy,
                live_bytes=len(data),
                corr=corr,
            )
        started = time.perf_counter()
        self._send(packet, data, lambda: self._drained(started))

    def _drained(self, started: float) -> None:
        """Kernel accepted every byte: measure, account, go idle.

        Runs on the event loop (the hub refreshes the clock first), so
        the idle-subscriber cascade — the engine's activation — sees a
        current ``now`` and may immediately refill the NIC, which the
        inherited ``_complete`` handles with its refill break.
        """
        self.stats.busy_time += (time.perf_counter() - started) / self._sim.time_scale
        self.drains += 1
        # The inherited _complete() closes the NIC's service span (send
        # -> drained, measured not modeled) and emits nic.idle.
        self._complete()
