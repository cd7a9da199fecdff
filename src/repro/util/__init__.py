"""Shared utilities: units, errors, seeded RNG streams, statistics, tracing.

These helpers are deliberately dependency-light; everything above the
simulation kernel (:mod:`repro.sim`) builds on them.
"""

from repro.util.errors import (
    CapabilityError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.util.rng import RngStream, SeedSequenceRegistry
from repro.util.tracing import NullTracer, Tracer, TraceEvent
from repro.util.units import (
    GiB,
    KiB,
    MiB,
    format_rate,
    format_size,
    format_time,
    mb_per_s,
    ms,
    ns,
    us,
)

__all__ = [
    "CapabilityError",
    "ConfigurationError",
    "GiB",
    "KiB",
    "MiB",
    "NullTracer",
    "ProtocolError",
    "ReproError",
    "RngStream",
    "SeedSequenceRegistry",
    "SimulationError",
    "TraceEvent",
    "Tracer",
    "format_rate",
    "format_size",
    "format_time",
    "mb_per_s",
    "ms",
    "ns",
    "us",
]
