"""Transfer cost models for high-speed network technologies.

The optimization engine's decisions hinge on the cost *structure* of a
network request, not on absolute numbers (paper §1): every request pays a
fixed per-request overhead α; bytes then flow at a mode-dependent rate β;
aggregating k small packets into one request trades k−1 request
overheads for extra host-copy (or gather-entry) cost.  :class:`LinkModel`
captures exactly those terms:

``sender_occupancy`` — how long the NIC (and, for PIO, the host CPU)
stays busy with a request.  This is the quantity the engine schedules
around, because a new optimization pass is triggered when it elapses and
the NIC goes idle.

``one_way_time`` — when the packet's last byte lands on the receiving
node (occupancy + wire propagation + receiver-side handling).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.errors import ConfigurationError

__all__ = ["TransferMode", "LinkModel"]


class TransferMode(enum.Enum):
    """How bytes move from host memory onto the wire.

    PIO (programmed I/O): the host CPU writes the payload to the NIC —
    low start-up latency, modest bandwidth, burns host cycles.  DMA: the
    NIC pulls the payload itself — higher start-up (descriptor posting,
    memory registration) but full link bandwidth and no host involvement.
    """

    PIO = "pio"
    DMA = "dma"


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Calibrated α/β cost model for one network technology.

    Parameters
    ----------
    name:
        Technology tag (``"mx"``, ``"elan"``, …).
    pio_latency / pio_bandwidth:
        Start-up cost (s) and byte rate (B/s) for PIO requests.
    dma_latency / dma_bandwidth:
        Start-up cost (s) and byte rate (B/s) for DMA requests; the
        start-up includes descriptor posting but *not* memory
        registration, which is ``dma_registration_cost`` per request on
        unregistered buffers.
    wire_latency:
        One-way propagation + switch traversal (s).
    copy_bandwidth:
        Host memcpy rate (B/s) paid for every byte staged *by copy* into
        an aggregation buffer.
    gather_entry_cost:
        Per-entry cost (s) of a hardware gather/scatter descriptor
        (zero-copy aggregation).
    rx_overhead:
        Fixed receiver-side handling cost per packet (s).
    dma_host_overhead:
        Host CPU time per DMA request (descriptor posting, doorbell) —
        the part of a DMA send the CPU cannot overlap with computing.
    """

    name: str
    pio_latency: float
    pio_bandwidth: float
    dma_latency: float
    dma_bandwidth: float
    wire_latency: float
    copy_bandwidth: float
    gather_entry_cost: float
    rx_overhead: float
    dma_host_overhead: float = 0.25e-6

    def __post_init__(self) -> None:
        positive = {
            "pio_latency": self.pio_latency,
            "pio_bandwidth": self.pio_bandwidth,
            "dma_latency": self.dma_latency,
            "dma_bandwidth": self.dma_bandwidth,
            "copy_bandwidth": self.copy_bandwidth,
        }
        for field_name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(
                    f"LinkModel.{field_name} must be > 0, got {value}"
                )
        non_negative = {
            "wire_latency": self.wire_latency,
            "gather_entry_cost": self.gather_entry_cost,
            "rx_overhead": self.rx_overhead,
            "dma_host_overhead": self.dma_host_overhead,
        }
        for field_name, value in non_negative.items():
            if value < 0:
                raise ConfigurationError(
                    f"LinkModel.{field_name} must be >= 0, got {value}"
                )

    # ------------------------------------------------------------------
    # cost primitives
    # ------------------------------------------------------------------
    def sender_occupancy(
        self,
        size: int,
        mode: TransferMode,
        *,
        copied_bytes: int = 0,
        gather_entries: int = 1,
    ) -> float:
        """Time the NIC is busy with one request.

        ``size`` is the total wire payload; ``copied_bytes`` of it were
        staged by host memcpy (by-copy aggregation); ``gather_entries``
        is the number of scatter/gather descriptor entries (1 for a
        contiguous send).  The one occupancy formula: the driver charges
        the NIC by it and the cost model prices plans by it, so a
        subclass overriding it changes both.
        """
        if size < 0:
            raise ConfigurationError(f"negative transfer size {size}")
        if copied_bytes < 0 or copied_bytes > size:
            raise ConfigurationError(
                f"copied_bytes={copied_bytes} outside [0, size={size}]"
            )
        if gather_entries < 1:
            raise ConfigurationError(f"gather_entries must be >= 1, got {gather_entries}")
        # Start-up α and byte rate β of the mode.
        if mode is TransferMode.PIO:
            startup, bandwidth = self.pio_latency, self.pio_bandwidth
        else:
            startup, bandwidth = self.dma_latency, self.dma_bandwidth
        serialization = size / bandwidth
        copy_cost = copied_bytes / self.copy_bandwidth
        gather_cost = (gather_entries - 1) * self.gather_entry_cost
        return startup + serialization + copy_cost + gather_cost

    def one_way_time(
        self,
        size: int,
        mode: TransferMode,
        *,
        copied_bytes: int = 0,
        gather_entries: int = 1,
    ) -> float:
        """Delay from request start to last byte available at the receiver."""
        return (
            self.sender_occupancy(
                size, mode, copied_bytes=copied_bytes, gather_entries=gather_entries
            )
            + self.wire_latency
            + self.rx_overhead
        )

    def host_occupancy(
        self, size: int, mode: TransferMode, *, copied_bytes: int = 0
    ) -> float:
        """Host CPU time consumed by one request.

        PIO keeps the CPU busy for the whole serialization (§1: "at the
        cost of additional processing"); DMA costs only descriptor
        posting.  By-copy aggregation staging is host work in both
        modes.  This is *accounting*, not contention: the simulation
        does not currently delay application compute for it, but the
        totals expose the PIO/DMA and copy/gather trade-offs (E10).
        """
        if size < 0 or copied_bytes < 0:
            raise ConfigurationError("sizes must be non-negative")
        copy_cost = copied_bytes / self.copy_bandwidth
        if mode is TransferMode.PIO:
            return self.pio_latency + size / self.pio_bandwidth + copy_cost
        return self.dma_host_overhead + copy_cost

    def pio_dma_crossover(self) -> float:
        """Message size where DMA becomes cheaper than PIO.

        Solves ``α_pio + s/β_pio = α_dma + s/β_dma``.  Returns ``0`` when
        DMA is always cheaper and ``inf`` when PIO is always cheaper.
        """
        inv_pio = 1.0 / self.pio_bandwidth
        inv_dma = 1.0 / self.dma_bandwidth
        if inv_pio <= inv_dma:
            # PIO is at least as fast per byte; cheaper start-up decides.
            return 0.0 if self.dma_latency <= self.pio_latency else float("inf")
        crossover = (self.dma_latency - self.pio_latency) / (inv_pio - inv_dma)
        return max(crossover, 0.0)
