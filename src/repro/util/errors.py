"""Exception hierarchy for the repro library.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything this package raises with a single ``except`` clause
while still letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InternalError",
    "SimulationError",
    "CapabilityError",
    "ProtocolError",
    "TransportError",
    "WireError",
    "REQUIRED",
    "reject_unknown_keys",
    "read_block",
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


#: The default of a :func:`read_block` key that must be given.
REQUIRED = object()

_KIND_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    tuple: "a list",
    Mapping: "an object",
}


def reject_unknown_keys(block: Mapping[str, Any], known, where: str) -> None:
    """Raise a :class:`ConfigurationError` naming the first key of
    ``block`` that is not in ``known``."""
    for key in block:
        if key not in known:
            raise ConfigurationError(
                f"unknown {where} key {key!r} (known: {sorted(known)})"
            )


def read_block(block: Any, schema: Mapping[str, tuple], where: str) -> dict[str, Any]:
    """One scenario block, read against ``schema`` (key → ``(kind, default)``).

    The result has every key of ``schema``, absent ones at their default
    (a :data:`REQUIRED` one must be given).  A value must be of its kind
    (a type or tuple of types; a bool is no number, an int is a float),
    or ``None`` where the default is.  Anything else raises a
    :class:`ConfigurationError` naming ``where`` and the key.
    """
    if not isinstance(block, Mapping):
        raise ConfigurationError(f"{where} must be an object, got {block!r}")
    reject_unknown_keys(block, schema, where)
    values = {}
    for key, (kind, default) in schema.items():
        value = block.get(key, default)
        if value is REQUIRED:
            raise ConfigurationError(f"{where} needs {key!r}")
        if value is None and default is None:
            values[key] = None
            continue
        kinds = kind if isinstance(kind, tuple) else (kind,)
        numbers = (int, *kinds) if float in kinds else kinds
        if not isinstance(value, numbers) or (isinstance(value, bool) and bool not in kinds):
            names = dict.fromkeys(_KIND_NAMES[k] for k in kinds)
            raise ConfigurationError(
                f"{where}.{key} must be {' or '.join(names)}, got {value!r}"
            )
        values[key] = float(value) if kind is float else value
    return values
