"""Calibrated :class:`~repro.network.model.LinkModel` presets.

The constants follow published microbenchmarks of the paper era
(2005–2006):

* **Myrinet 2000 / MX**: ~3 µs one-sided latency, ~247 MB/s sustained
  bandwidth; PIO profitable for small messages.
* **Quadrics QsNet II / Elan4**: ~1.5–2 µs latency, ~350 MB/s per rail
  (we use conservative host-limited figures rather than the 900 MB/s
  link peak — consistent with the Madeleine test platforms).
* **GigE / TCP**: ~50 µs latency, ~110 MB/s; no PIO/DMA distinction
  visible to the user, modelled as DMA-only with a high start-up.

Absolute values matter less than their *structure* (see
``DESIGN.md §6``); every experiment reports shapes, not microseconds.
"""

from __future__ import annotations

from typing import Callable

from repro.network.model import LinkModel
from repro.util.units import mb_per_s, us

__all__ = ["myrinet_mx", "quadrics_elan", "gige_tcp", "TECHNOLOGIES"]


def myrinet_mx() -> LinkModel:
    """Myrinet 2000 with the MX message layer (the paper's beta target)."""
    return LinkModel(
        name="mx",
        pio_latency=1.2 * us,
        pio_bandwidth=80 * mb_per_s,
        dma_latency=3.0 * us,
        dma_bandwidth=247 * mb_per_s,
        wire_latency=0.6 * us,
        copy_bandwidth=1500 * mb_per_s,
        gather_entry_cost=0.15 * us,
        rx_overhead=0.8 * us,
    )


def quadrics_elan() -> LinkModel:
    """Quadrics QsNet II / Elan4 (the second technology in Figure 1)."""
    return LinkModel(
        name="elan",
        pio_latency=0.9 * us,
        pio_bandwidth=100 * mb_per_s,
        dma_latency=2.0 * us,
        dma_bandwidth=350 * mb_per_s,
        wire_latency=0.4 * us,
        copy_bandwidth=1500 * mb_per_s,
        gather_entry_cost=0.10 * us,
        rx_overhead=0.6 * us,
    )


def gige_tcp() -> LinkModel:
    """Gigabit Ethernet through the kernel TCP stack (fallback network)."""
    return LinkModel(
        name="tcp",
        pio_latency=45.0 * us,  # TCP has no true PIO; both modes go
        pio_bandwidth=110 * mb_per_s,  # through the socket path
        dma_latency=50.0 * us,
        dma_bandwidth=110 * mb_per_s,
        wire_latency=5.0 * us,
        copy_bandwidth=1500 * mb_per_s,
        gather_entry_cost=0.5 * us,
        rx_overhead=10.0 * us,
    )


#: Registry of preset factories keyed by technology tag.
TECHNOLOGIES: dict[str, Callable[[], LinkModel]] = {
    "mx": myrinet_mx,
    "elan": quadrics_elan,
    "tcp": gige_tcp,
}
