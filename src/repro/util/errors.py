"""Exception hierarchy for the repro library.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything this package raises with a single ``except`` clause
while still letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InternalError",
    "SimulationError",
    "CapabilityError",
    "ProtocolError",
    "TransportError",
    "WireError",
    "FaultInjectionError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A scenario, driver, or engine was configured inconsistently.

    Examples: a negative link bandwidth, a lookahead window of zero, a
    traffic class mapped to a channel that does not exist.
    """


class InternalError(ReproError):
    """A library invariant was violated — a bug in :mod:`repro` itself.

    Unlike :class:`ConfigurationError` this never indicates user error:
    it fires when internal bookkeeping disagrees with itself, e.g. an
    engine removing a waiting-list entry from a queue that does not hold
    it, or incremental counters drifting from the entries they summarize.
    """


class SimulationError(ReproError):
    """The discrete-event kernel detected an impossible state.

    Examples: scheduling an event in the past, running a simulator that
    was already stopped, a NIC completing a transfer it never started.
    """


class CapabilityError(ReproError):
    """A transfer plan exceeds the capabilities of the target driver.

    Examples: more gather entries than ``max_gather_entries``, an
    aggregated packet larger than ``max_aggregate_size``, requesting DMA
    on a PIO-only device.
    """


class ProtocolError(ReproError):
    """A wire-protocol invariant was violated (duplicate delivery,
    unmatched rendezvous acknowledgement, unpack without matching pack).
    """


class TransportError(ReproError):
    """The reliability protocol gave up on a transfer.

    Examples: a packet exhausted its bounded retransmit budget without
    being acknowledged, or a retransmission was requested for a packet
    the transport no longer tracks.
    """


class WireError(ProtocolError):
    """Bytes on the wire could not be decoded into a packet.

    Raised by the :mod:`repro.network.wire` byte codec (and the live
    transport's stream decoder) on truncated input, bad magic, checksum
    mismatch, or malformed framing — never an ``IndexError`` or
    ``struct.error`` leaking from the parser.  A subclass of
    :class:`ProtocolError` so existing protocol-level handlers catch it.
    """


class FaultInjectionError(ReproError):
    """A fault-injection plan is inconsistent or cannot be applied.

    Examples: a drop probability outside ``[0, 1]``, an outage naming a
    NIC or network that does not exist in the fabric, a recovery time
    scheduled before the outage itself.
    """
