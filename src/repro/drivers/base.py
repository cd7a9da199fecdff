"""The driver abstraction: capability queries + transfer execution.

A :class:`Driver` binds one :class:`~repro.network.nic.NIC` and answers
the three questions the optimization engine asks:

1. *How should this payload move?* — :meth:`choose_mode` (PIO vs DMA),
   :meth:`wants_rendezvous` (eager vs rendezvous), and
   :meth:`choose_aggregation` (by-copy staging vs hardware gather), all
   answered from ``constants``, which the decision kernel reads too;
2. *What would this request cost?* — :meth:`occupancy` /
   :meth:`one_way`, delegating to the technology's
   :class:`~repro.network.model.LinkModel`;
3. *Do it.* — :meth:`send` validates the request against the driver's
   capabilities and submits it to the NIC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drivers.capabilities import DriverCapabilities, DriverConstants
from repro.network.model import TransferMode
from repro.network.nic import NIC
from repro.network.wire import PacketKind, WirePacket
from repro.util.errors import CapabilityError

__all__ = ["AggregationChoice", "Driver"]


@dataclass(frozen=True, slots=True)
class AggregationChoice:
    """How a multi-segment packet is assembled for the wire.

    ``copied_bytes`` were staged into a contiguous buffer by host memcpy;
    ``gather_entries`` is the scatter/gather descriptor count.  Exactly
    one of the two mechanisms dominates a request, but mixed plans
    (copy the small segments, gather the large ones) are representable.
    """

    copied_bytes: int
    gather_entries: int


#: Methods whose rules :class:`DriverConstants` carries, which the array
#: walk and the price (:meth:`repro.core.cost.CostModel.terms`) read
#: instead of the driver.
_FOLDED_METHODS = (
    "choose_mode",
    "wants_rendezvous",
    "choose_aggregation",
    "occupancy",
    "max_segments_per_packet",
)


class Driver:
    """Concrete driver; technology subclasses only pick the capabilities.

    One that redefines a decision method is rejected at class creation:
    the engine reads the folded :attr:`constants`, so the override would
    be ignored on the hot path and honoured elsewhere.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for method in _FOLDED_METHODS:
            if method in cls.__dict__:
                raise TypeError(
                    f"{cls.__name__}.{method} overrides a decision folded into "
                    "constants; express it in DriverCapabilities or the LinkModel"
                )

    def __init__(self, nic: NIC, caps: DriverCapabilities) -> None:
        if caps.technology != nic.link.name:
            raise CapabilityError(
                f"driver for {caps.technology!r} bound to a {nic.link.name!r} NIC"
            )
        self.nic = nic
        self.caps = caps
        #: ``caps`` folded with the link: what every decision reads.
        self.constants = DriverConstants(caps, nic.link, nic.reaches)

    @property
    def name(self) -> str:
        """Driver instance name (mirrors the NIC's)."""
        return self.nic.name

    @property
    def idle(self) -> bool:
        """Whether the underlying NIC can accept a request now."""
        return self.nic.idle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.nic.name!r})"

    # ------------------------------------------------------------------
    # decision helpers (capability-parameterized, paper abstract)
    # ------------------------------------------------------------------
    def choose_mode(self, payload_bytes: int) -> TransferMode:
        """Pick PIO or DMA for a payload.

        PIO is used when it is (a) supported, (b) within the hardware
        PIO window (``caps.pio_threshold``), and (c) actually cheaper
        than DMA under the link's cost model (below the α/β crossover)
        — all three folded into ``constants.pio_limit``.
        """
        return self.constants.mode(payload_bytes)

    def wants_rendezvous(self, payload_bytes: int) -> bool:
        """Whether this payload must use the rendezvous protocol."""
        threshold = self.constants.rdv_threshold
        return threshold is not None and payload_bytes > threshold

    def choose_aggregation(self, segment_sizes: list[int]) -> AggregationChoice:
        """Pick the cheaper assembly mechanism for a multi-segment packet.

        Compares the host-copy cost of staging every segment against the
        per-entry cost of a hardware gather descriptor (when supported
        and within ``max_gather_entries``); single segments are free.
        """
        n = len(segment_sizes)
        if n == 0:
            raise CapabilityError("cannot aggregate zero segments")
        return AggregationChoice(*self.constants.aggregation(n, sum(segment_sizes)))

    def max_segments_per_packet(self) -> int:
        """Upper bound on aggregated segments (by-copy has no entry limit)."""
        return self.constants.max_items_cap

    # ------------------------------------------------------------------
    # cost queries
    # ------------------------------------------------------------------
    def occupancy(
        self, wire_bytes: int, mode: TransferMode, aggregation: AggregationChoice
    ) -> float:
        """Sender-side NIC busy time for a request of ``wire_bytes``."""
        return self.nic.link.sender_occupancy(
            wire_bytes,
            mode,
            copied_bytes=aggregation.copied_bytes,
            gather_entries=aggregation.gather_entries,
        )

    def one_way(
        self, wire_bytes: int, mode: TransferMode, aggregation: AggregationChoice
    ) -> float:
        """Delay until the packet lands on the destination node."""
        return self.nic.link.one_way_time(
            wire_bytes,
            mode,
            copied_bytes=aggregation.copied_bytes,
            gather_entries=aggregation.gather_entries,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def validate(self, packet: WirePacket, aggregation: AggregationChoice) -> None:
        """Raise :class:`CapabilityError` if the request exceeds this driver."""
        if packet.kind is PacketKind.EAGER:
            if packet.payload_bytes > self.caps.max_aggregate_size:
                raise CapabilityError(
                    f"eager packet of {packet.payload_bytes} B exceeds "
                    f"max_aggregate_size={self.caps.max_aggregate_size} on {self.name}"
                )
        if aggregation.gather_entries > self.caps.max_gather_entries:
            raise CapabilityError(
                f"{aggregation.gather_entries} gather entries exceed "
                f"max_gather_entries={self.caps.max_gather_entries} on {self.name}"
            )
        if aggregation.gather_entries > 1 and not self.caps.supports_gather:
            raise CapabilityError(f"driver {self.name} does not support gather")
        if packet.kind in (PacketKind.RDV_REQ, PacketKind.RDV_ACK) and not self.caps.supports_rdv:
            raise CapabilityError(f"driver {self.name} does not support rendezvous")

    def send(
        self,
        packet: WirePacket,
        *,
        mode: TransferMode | None = None,
        aggregation: AggregationChoice | None = None,
    ) -> tuple[float, float]:
        """Validate and submit one request to the NIC.

        Returns ``(occupancy, one_way)`` so the caller can account for
        the transfer without re-deriving costs.  ``mode`` defaults to
        :meth:`choose_mode`; ``aggregation`` defaults to
        :meth:`choose_aggregation` over the packet's segments.
        """
        if aggregation is None:
            sizes = [s.length for s in packet.segments] or [0]
            aggregation = self.choose_aggregation(sizes)
        if mode is None:
            mode = self.choose_mode(packet.payload_bytes)
        if mode is TransferMode.PIO and not self.caps.supports_pio:
            raise CapabilityError(f"driver {self.name} does not support PIO")
        if mode is TransferMode.DMA and not self.caps.supports_dma:
            raise CapabilityError(f"driver {self.name} does not support DMA")
        self.validate(packet, aggregation)
        wire_bytes = packet.wire_bytes
        busy = self.occupancy(wire_bytes, mode, aggregation)
        arrival = self.one_way(wire_bytes, mode, aggregation)
        host = self.nic.link.host_occupancy(
            wire_bytes, mode, copied_bytes=aggregation.copied_bytes
        )
        self.nic.submit(packet, busy, arrival, host_time=host)
        return busy, arrival
