"""The extendable strategy database (paper abstract).

Each strategy is one way of turning the waiting-packet backlog into the
next wire packet for an idle NIC.  The registry maps names to strategy
types so scenarios select strategies declaratively and downstream users
can plug in their own ("The database of predefined strategies can be
easily extended"):

>>> from repro.core.strategies import register_strategy, Strategy
>>> @register_strategy("mine")
... class MyStrategy(Strategy):
...     def make_plan(self, engine, driver):
...         ...

Predefined strategies:

* ``eager`` — send entries one per packet in arrival order (the
  no-optimization reference point);
* ``aggregate`` — greedy cross-flow aggregation under driver
  capabilities (the paper's headline optimization);
* ``search`` — bounded best-first search over candidate rearrangements,
  scored by the cost model (§4 future work);
* ``nagle`` — ``aggregate`` behind the artificial small-backlog delay (§3);
* ``auto`` — meta-strategy that selects between the above per decision,
  based on the observed backlog (§2: "selecting different policies, as
  the needs of the application evolve").
"""

from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.auto import AutoStrategy
from repro.core.strategies.base import (
    STRATEGY_TYPES,
    Strategy,
    make_strategy,
    register_strategy,
)
from repro.core.strategies.eager import EagerStrategy
from repro.core.strategies.nagle import NagleStrategy
from repro.core.strategies.search import BoundedSearchStrategy

__all__ = [
    "AggregationStrategy",
    "AutoStrategy",
    "BoundedSearchStrategy",
    "EagerStrategy",
    "NagleStrategy",
    "STRATEGY_TYPES",
    "Strategy",
    "make_strategy",
    "register_strategy",
]
