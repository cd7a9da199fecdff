"""Strategy interface and registry."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.plan import Hold, TransferPlan
from repro.drivers.base import Driver
from repro.util.errors import ConfigurationError
from repro.util.tracing import ABSENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CommEngineBase

__all__ = ["Strategy", "STRATEGY_TYPES", "register_strategy", "make_strategy"]

#: The explain fields of a decision that reports none: the
#: ``optimizer.decide`` record's last eight (``regime``, then the
#: search's seven), each :data:`~repro.util.tracing.ABSENT`.
NO_EXPLAIN = (ABSENT,) * 8


class Strategy(abc.ABC):
    """One packet-building policy.

    ``make_plan`` is called by the engine whenever a NIC is idle and
    work may be pending.  It must return

    * a :class:`~repro.core.plan.TransferPlan` for exactly one packet on
      ``driver``,
    * a :class:`~repro.core.plan.Hold` to postpone the decision, or
    * ``None`` when nothing should be sent on this driver now.

    The engine may answer submit activations from a Hold until its
    release condition; it re-asks on every other activation (NIC idle,
    hold expiry, rendezvous and rail events).

    Strategies may *park* oversized entries for rendezvous via
    ``engine.park_for_rendezvous`` while planning; the engine re-plans
    when parking added new control work.
    """

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        """Build the next packet for an idle driver (see class docs)."""

    def explain_last(self) -> tuple:
        """Explainability fields of the most recent ``make_plan`` call.

        The engine appends the result to the ``optimizer.decide`` trace
        record it emits per dispatch — only when tracing is enabled, so
        implementations may (and should) skip collecting anything while
        ``engine.sim.tracer.enabled`` is false.  Positions are fixed (see
        :data:`NO_EXPLAIN`); a field not reported holds ``ABSENT``.  The
        base reports none.
        """
        return NO_EXPLAIN

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: Registry: strategy name → strategy type.
STRATEGY_TYPES: dict[str, type[Strategy]] = {}


def register_strategy(name: str):
    """Class decorator adding a strategy to the database.

    Re-registering a name is an error — the database is a shared
    namespace and silent replacement would make scenarios ambiguous.
    """

    def decorator(cls: type[Strategy]) -> type[Strategy]:
        if name in STRATEGY_TYPES:
            raise ConfigurationError(f"strategy {name!r} already registered")
        if not issubclass(cls, Strategy):
            raise ConfigurationError(f"{cls!r} is not a Strategy subclass")
        STRATEGY_TYPES[name] = cls
        cls.name = name
        return cls

    return decorator


def make_strategy(name: str, **params: Any) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = STRATEGY_TYPES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGY_TYPES))
        raise ConfigurationError(
            f"unknown strategy {name!r} (known: {known})"
        ) from None
    return cls(**params)
