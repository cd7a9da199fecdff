"""The Madeleine optimization engine — the paper's contribution.

This package implements the middle layer of Figure 1: the
optimizer–scheduler that sits between the collect layer (waiting packet
lists fed by the packing API) and the transfer layer (drivers/NICs).

Key pieces:

* :mod:`~repro.core.engine` — :class:`OptimizingEngine`: NIC-idle-
  triggered activation, backlog accumulation, dispatch loop;
* :mod:`~repro.core.waiting` — per-channel waiting packet lists with
  flow-frontier eligibility;
* :mod:`~repro.core.strategies` — the extendable strategy database
  (aggregation, bounded reordering search, multirail striping, Nagle
  delay, …);
* :mod:`~repro.core.channels` — channel assignment policies (traffic
  classes vs one-to-one fallback, paper §2);
* :mod:`~repro.core.cost` — capability-parameterized plan cost/score
  model.
"""

from repro.core.adaptive import AdaptiveChannels
from repro.core.channels import (
    ChannelPolicy,
    OneToOneChannels,
    PooledChannels,
    WeightedChannels,
)
from repro.core.config import EngineConfig
from repro.core.cost import CostModel
from repro.core.engine import CommEngineBase, EngineStats, OptimizingEngine
from repro.core.plan import Hold, PlanItem, TransferPlan
from repro.core.strategies import (
    AggregationStrategy,
    AutoStrategy,
    BoundedSearchStrategy,
    EagerStrategy,
    NagleStrategy,
    STRATEGY_TYPES,
    Strategy,
    make_strategy,
    register_strategy,
)
from repro.core.waiting import ChannelQueue, WaitingLists

__all__ = [
    "AdaptiveChannels",
    "AggregationStrategy",
    "AutoStrategy",
    "BoundedSearchStrategy",
    "ChannelPolicy",
    "ChannelQueue",
    "CommEngineBase",
    "CostModel",
    "EagerStrategy",
    "EngineConfig",
    "EngineStats",
    "Hold",
    "NagleStrategy",
    "OneToOneChannels",
    "OptimizingEngine",
    "PlanItem",
    "PooledChannels",
    "STRATEGY_TYPES",
    "Strategy",
    "TransferPlan",
    "WaitingLists",
    "WeightedChannels",
    "make_strategy",
    "register_strategy",
]
