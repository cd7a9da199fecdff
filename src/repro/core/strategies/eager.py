"""The ``eager`` strategy: one entry per packet, arrival order.

The no-optimization reference point inside the new architecture: every
eligible entry becomes its own wire packet.  Useful as an ablation (what
does NIC-idle triggering buy *without* aggregation?) and as the policy
of last resort the paper mentions ("may send packets as they become
available, as a regular communication library would do").
"""

from __future__ import annotations

from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.base import register_strategy

__all__ = ["EagerStrategy"]


@register_strategy("eager")
class EagerStrategy(AggregationStrategy):
    """Send waiting entries one per packet, in arrival order:
    ``aggregate`` capped at one segment."""

    def __init__(self) -> None:
        super().__init__(max_items=1)
