"""Unit constants and formatting helpers.

Conventions used throughout the library:

* **time** is virtual seconds stored as ``float``;
* **sizes** are bytes stored as ``int``;
* **rates** are bytes per second stored as ``float``.

The constants below make scenario definitions read like the paper's own
numbers (``4 * KiB``, ``3 * us``, ``250 * mb_per_s``).
"""

from __future__ import annotations

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "ns",
    "us",
    "ms",
    "mb_per_s",
    "format_size",
    "format_time",
    "format_rate",
]

#: One kibibyte (1024 bytes).
KiB: int = 1024
#: One mebibyte (1024 KiB).
MiB: int = 1024 * KiB
#: One gibibyte (1024 MiB).
GiB: int = 1024 * MiB

#: One nanosecond in seconds.
ns: float = 1e-9
#: One microsecond in seconds.
us: float = 1e-6
#: One millisecond in seconds.
ms: float = 1e-3

#: One megabyte per second (10^6 bytes/s, the unit used by MX microbenchmarks).
mb_per_s: float = 1e6


def format_size(n_bytes: float) -> str:
    """Render a byte count with a binary suffix (``"4.0 KiB"``)."""
    value = float(n_bytes)
    for unit, threshold in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f} {unit}"
    return f"{value:.0f} B"


def format_time(seconds: float) -> str:
    """Render a duration with the natural engineering unit."""
    a = abs(seconds)
    if a >= 1.0:
        return f"{seconds:.3f} s"
    if a >= ms:
        return f"{seconds / ms:.3f} ms"
    if a >= us:
        return f"{seconds / us:.3f} us"
    return f"{seconds / ns:.1f} ns"


def format_rate(bytes_per_second: float) -> str:
    """Render a throughput in MB/s (the paper-era convention)."""
    return f"{bytes_per_second / mb_per_s:.2f} MB/s"
