"""Exception hierarchy for the repro library.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything this package raises with a single ``except`` clause
while still letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

import enum
import functools
import inspect
import types
import typing
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
    "schema_of",
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


@functools.cache
def schema_of(cls: type) -> Mapping[str, tuple]:
    """``cls``'s constructor as a read-only :func:`read_block` schema: its
    parameter names are the keys, its defaults the defaults
    (:data:`REQUIRED` where there is none) and its annotations the kinds."""
    hints = typing.get_type_hints(cls.__init__)
    return types.MappingProxyType({
        name: (_kind(hints[name]), REQUIRED if param.default is param.empty else param.default)
        for name, param in inspect.signature(cls).parameters.items()
    })


def _kind(hint: Any) -> Any:
    """An annotation as a kind: an ``Enum`` (read by value), or a tuple of
    types of :data:`_KIND_NAMES` (``list[X]`` is a list) and ``None``."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = tuple(typing.get_origin(t) or t for t in (typing.get_args(hint) if union else [hint]))
    if not all(k in _KIND_NAMES or k is types.NoneType for k in kinds):
        raise TypeError(f"no scenario kind for the annotation {hint!r}")
    return kinds


def read_block(block: Any, schema: Mapping[str, tuple] | type, where: str) -> dict[str, Any]:
    """One scenario block, read against ``schema`` (key → ``(kind,
    default)``), or against the class ``schema``'s constructor
    (:func:`schema_of`).

    The result has every key of ``schema``, absent ones at their default
    (a :data:`REQUIRED` one must be given).  A value must be of its kind
    (a bool is no number, an int is a float, a tuple is a list, an
    ``Enum`` is given by value), or ``None`` where the default or the
    kind is.  Anything else is a :class:`ConfigurationError` naming
    ``where`` and the key.
    """
    schema = schema_of(schema) if isinstance(schema, type) else schema
    if not isinstance(block, Mapping):
        raise ConfigurationError(f"{where} must be an object, got {block!r}")
    reject_unknown_keys(block, schema, where)
    values = {}
    for key, (kind, default) in schema.items():
        value = block.get(key, default)
        if value is REQUIRED:
            raise ConfigurationError(f"{where} needs {key!r}")
        values[key] = _read(value, kind, default, f"{where}.{key}")
    return values


def _read(value: Any, kind: Any, default: Any, where: str) -> Any:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if value is None and (default is None or types.NoneType in kinds):
        return None
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            raise ConfigurationError(
                f"{where} must be one of {[member.value for member in kind]}, got {value!r}"
            ) from None
    accepted = kinds + ((int,) if float in kinds else ()) + ((tuple,) if list in kinds else ())
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in kinds):
        names = dict.fromkeys(_KIND_NAMES[k] for k in kinds if k is not types.NoneType)
        raise ConfigurationError(f"{where} must be {' or '.join(names)}, got {value!r}")
    return float(value) if float in kinds and isinstance(value, int) else value
