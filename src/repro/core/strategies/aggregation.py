"""The ``aggregate`` strategy: greedy cross-flow aggregation.

The paper's headline optimization (§4: "the aggregation of eager
segments collected from several independent communication flows brings
huge performance gains").  For each idle NIC, walk the highest-priority
non-empty channel queue in arrival order and pack as many eligible
eager entries — *regardless of which flow they belong to* — into one
wire packet as the driver's capabilities allow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies._builder import build_from_queue, first_build
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["AggregationStrategy"]


@register_strategy("aggregate")
class AggregationStrategy(Strategy):
    """Greedy capability-bounded cross-flow aggregation."""

    def __init__(self, max_items: int | None = None) -> None:
        #: Optional cap on segments per packet (None: the driver's bound).
        self.max_items = max_items

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        return first_build(engine, driver, build_from_queue, self.max_items)
