"""The ``auto`` meta-strategy: dynamic policy selection.

Paper §2: the scheduler may "dynamically change the assignment of
networking resources …, thus **selecting different policies**, as the
needs of the application evolve during the execution."  Beyond channel
assignment (see :mod:`repro.core.adaptive`), the same idea applies to
the packet-building policy itself:

* under a **deep backlog** the plain greedy aggregation is optimal —
  the lookahead pool is already full of opportunities;
* under **sparse arrivals** a Nagle-style hold harvests aggregations
  the backlog alone would miss;
* with **very few** waiting packets and recent holds not paying off,
  just send immediately (the "regular communication library" fallback
  of §3).

``AutoStrategy`` watches the waiting lists and decides as the matching
strategy would: ``aggregate``'s build when deep, ``nagle``'s build plus
gate when sparse.  ``selections`` shows which regimes a run visited.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies._builder import build_from_queue, first_build
from repro.core.strategies.base import NO_EXPLAIN, Strategy, register_strategy
from repro.core.strategies.nagle import gated_plan
from repro.drivers.base import Driver
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["AutoStrategy"]


@register_strategy("auto")
class AutoStrategy(Strategy):
    """Backlog-aware selection between aggregation and Nagle holding.

    Parameters
    ----------
    deep_backlog:
        Pending entries at or above this count mean the lookahead pool
        is rich: use plain greedy aggregation, never hold.
    hold_delay / hold_min_bytes:
        Nagle parameters used in the sparse regime (defaults chosen for
        MX-scale latencies; ``EngineConfig`` values are *not* used so
        the meta-strategy is self-contained).
    """

    def __init__(
        self,
        deep_backlog: int = 8,
        hold_delay: float = 6 * us,
        hold_min_bytes: int = 2 * KiB,
    ) -> None:
        if deep_backlog < 1:
            raise ConfigurationError(f"deep_backlog must be >= 1, got {deep_backlog}")
        if hold_delay < 0 or hold_min_bytes < 0:
            raise ConfigurationError("hold parameters must be >= 0")
        self.deep_backlog = deep_backlog
        self.hold_delay = hold_delay
        self.hold_min_bytes = hold_min_bytes
        #: regime name → decisions made in it (submits the engine
        #: answers from a standing Hold are not decisions).
        self.selections: dict[str, int] = {"deep": 0, "sparse": 0}
        self._last_regime = "sparse"

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        if engine.waiting.total_pending >= self.deep_backlog:
            self.selections["deep"] += 1
            self._last_regime = "deep"
            return first_build(engine, driver, build_from_queue)
        self.selections["sparse"] += 1
        self._last_regime = "sparse"
        # ``deep_backlog`` entries flip the regime: a Hold stands below that.
        return gated_plan(
            engine, driver, self.hold_delay, self.hold_min_bytes, self.deep_backlog
        )

    def explain_last(self) -> tuple:
        return (self._last_regime, *NO_EXPLAIN[1:])
