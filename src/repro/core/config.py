"""Engine configuration knobs.

These are the tunables the paper discusses or announces as future work:
the lookahead window size (§4), the Nagle-style artificial delay (§3),
the bound on rearrangement evaluations (§4), multirail striping
granularity (§2), and rail binding (pooled scheduling vs static
channel→NIC partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.units import KiB

__all__ = ["EngineConfig", "RAIL_BINDINGS"]

#: Valid values of :attr:`EngineConfig.rail_binding`.
RAIL_BINDINGS = ("pooled", "static")


@dataclass(slots=True)
class EngineConfig:
    """Tunable parameters of an optimizing engine.

    Parameters
    ----------
    lookahead_window:
        Maximum waiting packets examined per scheduling decision (per
        channel).  ``1`` degenerates to send-in-arrival-order.
    nagle_delay:
        Artificial delay (s) a small backlog may be held for, hoping for
        a better aggregation (§3, "in a TCP Nagle's algorithm fashion").
        ``0`` disables holding.
    nagle_min_bytes:
        A backlog at or above this many bytes is never held.
    stripe_chunk:
        Slice size for striping rendezvous bulk data across idle rails;
        ``None`` disables striping (each bulk transfer rides one NIC).
    search_budget:
        Maximum candidate rearrangements the bounded-search strategy
        evaluates per decision (§4 future work).
    rail_binding:
        ``"pooled"`` — any idle NIC may serve any channel (the paper's
        pooled multiplexing units); ``"static"`` — channel *i* is bound
        to NIC ``i mod n`` (the naive comparator in E6).
    rdv_timeout:
        Seconds a parked rendezvous entry waits for its acknowledgement
        before abandoning the handshake and falling back to eager/split
        transmission (graceful degradation on a faulty fabric).
        ``None`` (default) waits forever — the lossless-network
        behaviour.
    """

    lookahead_window: int = 16
    nagle_delay: float = 0.0
    nagle_min_bytes: int = 0
    stripe_chunk: int | None = 64 * KiB
    search_budget: int = 32
    rail_binding: str = "pooled"
    rdv_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.lookahead_window < 1:
            raise ConfigurationError(
                f"lookahead_window must be >= 1, got {self.lookahead_window}"
            )
        if self.nagle_delay < 0:
            raise ConfigurationError(f"nagle_delay must be >= 0, got {self.nagle_delay}")
        if self.nagle_min_bytes < 0:
            raise ConfigurationError(
                f"nagle_min_bytes must be >= 0, got {self.nagle_min_bytes}"
            )
        if self.stripe_chunk is not None and self.stripe_chunk < 1 * KiB:
            raise ConfigurationError(
                f"stripe_chunk must be >= 1 KiB or None, got {self.stripe_chunk}"
            )
        if self.search_budget < 1:
            raise ConfigurationError(
                f"search_budget must be >= 1, got {self.search_budget}"
            )
        if self.rail_binding not in RAIL_BINDINGS:
            raise ConfigurationError(
                f"rail_binding must be one of {RAIL_BINDINGS}, got {self.rail_binding!r}"
            )
        if self.rdv_timeout is not None and self.rdv_timeout <= 0:
            raise ConfigurationError(
                f"rdv_timeout must be > 0 or None, got {self.rdv_timeout}"
            )
