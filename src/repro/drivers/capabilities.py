"""Driver capability descriptors.

The strategy database never hardcodes technology behaviour; every
decision (can I aggregate? by copy or by gather? how large? eager or
rendezvous? PIO or DMA?) queries the :class:`DriverCapabilities` of the
candidate driver.  This is the paper's "optimizations are parameterized
by the capabilities of the underlying network drivers", and it is what
makes the same strategy code portable across MX, Elan and TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.network.model import LinkModel, TransferMode
from repro.util.errors import CapabilityError, ConfigurationError
from repro.util.units import KiB, us

__all__ = ["DriverCapabilities", "DriverConstants"]


@dataclass(frozen=True, slots=True)
class DriverCapabilities:
    """What one driver/NIC combination can do, and at which thresholds.

    Parameters
    ----------
    technology:
        Tag matching the :class:`~repro.network.model.LinkModel` name.
    supports_pio / supports_dma:
        Available transfer modes (at least one must be true).
    pio_threshold:
        Prefer PIO for payloads at or below this size (ignored when PIO
        is unsupported).
    supports_gather / max_gather_entries:
        Hardware scatter/gather: maximum descriptor entries per request
        (1 means contiguous only).
    max_aggregate_size:
        Largest eager packet payload the driver accepts — the hard cap on
        aggregation.
    eager_threshold:
        Payloads above this switch to the rendezvous protocol.
    supports_rdv:
        Whether the rendezvous protocol is implemented (TCP-style streams
        may do without).
    rdv_ack_delay:
        Receiver-side delay between RDV_REQ arrival and ACK emission
        (memory pinning, buffer posting).
    max_channels:
        Number of virtualized multiplexing units the NIC exposes.
    """

    technology: str
    supports_pio: bool = True
    supports_dma: bool = True
    pio_threshold: int = 4 * KiB
    supports_gather: bool = True
    max_gather_entries: int = 16
    max_aggregate_size: int = 32 * KiB
    eager_threshold: int = 32 * KiB
    supports_rdv: bool = True
    rdv_ack_delay: float = 2.0 * us
    max_channels: int = 8

    def __post_init__(self) -> None:
        if not (self.supports_pio or self.supports_dma):
            raise ConfigurationError(
                f"driver {self.technology!r} supports neither PIO nor DMA"
            )
        if self.max_gather_entries < 1:
            raise ConfigurationError(
                f"max_gather_entries must be >= 1, got {self.max_gather_entries}"
            )
        if self.supports_gather and self.max_gather_entries < 2:
            raise ConfigurationError(
                "supports_gather requires max_gather_entries >= 2"
            )
        if self.max_aggregate_size < 1:
            raise ConfigurationError(
                f"max_aggregate_size must be >= 1, got {self.max_aggregate_size}"
            )
        if self.eager_threshold < 0:
            raise ConfigurationError(
                f"eager_threshold must be >= 0, got {self.eager_threshold}"
            )
        if self.rdv_ack_delay < 0:
            raise ConfigurationError(
                f"rdv_ack_delay must be >= 0, got {self.rdv_ack_delay}"
            )
        if self.max_channels < 1:
            raise ConfigurationError(
                f"max_channels must be >= 1, got {self.max_channels}"
            )
        if self.pio_threshold < 0:
            raise ConfigurationError(
                f"pio_threshold must be >= 0, got {self.pio_threshold}"
            )

    @property
    def aggregation_limit(self) -> int:
        """Max payload slices combinable in one request.

        1 when gather is unsupported *and* copies are the only option —
        by-copy aggregation is always possible, so this reports the
        gather bound only; strategies combine it with size limits.
        """
        return self.max_gather_entries if self.supports_gather else 1


class DriverConstants:
    """One driver's capabilities folded with its link, at construction.

    Both inputs are frozen, so the fold holds for the driver's lifetime.
    The :class:`~repro.drivers.base.Driver` decision methods and the
    array walk in :mod:`repro.core.kernel` read these same fields — one
    copy of each rule:

    * ``payload <= pio_limit`` selects PIO (``-inf`` pins DMA-only
      drivers, ``+inf`` PIO-only ones);
    * ``payload > rdv_threshold`` selects rendezvous (``None``: none);
    * ``max_items_cap`` bounds the segments of one packet.  By-copy
      staging can merge arbitrarily many, so the real bound is
      ``max_aggregate_size``; the cap keeps header overhead sane.

    The only live callable kept is the NIC's ``reaches`` (reachability
    changes under fault injection and is asked again per build).
    """

    __slots__ = (
        "max_aggregate_size",
        "max_items_cap",
        "rdv_threshold",
        "supports_gather",
        "max_gather_entries",
        "gather_entry_cost",
        "copy_bandwidth",
        "pio_limit",
        "startup_pio",
        "bandwidth_pio",
        "startup_equiv_pio",
        "startup_dma",
        "bandwidth_dma",
        "startup_equiv_dma",
        "reaches",
    )

    def __init__(
        self,
        caps: DriverCapabilities,
        link: LinkModel,
        reaches: Callable[[str], bool],
    ) -> None:
        if type(link).sender_occupancy is not LinkModel.sender_occupancy:
            # The packed scorer writes out LinkModel.sender_occupancy's
            # arithmetic; another formula would be silently ignored.
            raise CapabilityError(
                f"{type(link).__name__} overrides LinkModel.sender_occupancy, "
                "which the decision kernel folds; change its parameters instead"
            )
        self.max_aggregate_size = caps.max_aggregate_size
        self.max_items_cap = max(caps.max_gather_entries, 64)
        self.rdv_threshold = caps.eager_threshold if caps.supports_rdv else None
        self.supports_gather = caps.supports_gather
        self.max_gather_entries = caps.max_gather_entries
        self.gather_entry_cost = link.gather_entry_cost
        self.copy_bandwidth = link.copy_bandwidth
        if not caps.supports_pio:
            self.pio_limit = float("-inf")
        elif not caps.supports_dma:
            self.pio_limit = float("inf")
        else:
            # PIO while inside the hardware window *and* cheaper than
            # DMA under the link's cost model (below the α/β crossover).
            self.pio_limit = min(float(caps.pio_threshold), link.pio_dma_crossover())
        self.startup_pio = link.startup(TransferMode.PIO)
        self.bandwidth_pio = link.bandwidth(TransferMode.PIO)
        self.startup_equiv_pio = self.startup_pio * self.bandwidth_pio
        self.startup_dma = link.startup(TransferMode.DMA)
        self.bandwidth_dma = link.bandwidth(TransferMode.DMA)
        self.startup_equiv_dma = self.startup_dma * self.bandwidth_dma
        self.reaches = reaches
