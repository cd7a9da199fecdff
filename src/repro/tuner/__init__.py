"""Tail-acting rail selection: the scheduler acts on the tails it observes.

A scenario ``"tuner"`` block installs one
:class:`~repro.tuner.rails.TailRailSelector` per engine as
``engine.rail_selector``, in the sim and live planes alike.  Its number:
``tests/tuner/test_rails.py::TestSkewedRailRun``, steady-state p99
105.49 → 21.36 µs with a slow rail listed first.  The block is strict
and optional; present, it turns selection on (there is no other
switch)::

    "tuner": {
      "rails": {                  # every key optional
        "p99_budget_us": 500.0,
        "min_samples": 32,
        "refresh_every": 32
      }
    }

Same contract as the ``"faults"`` and ``"observability"`` blocks: an
unknown key is a :class:`~repro.util.errors.ConfigurationError` naming
it, and so is a block without the tails it acts on (``observability``
with tracing on) — a knob silently ignored would invalidate the run it
was meant to tune.  Nothing else is touched: ``engine.strategy`` stays
the object the scenario's strategy factory returned, and without the
block no selector exists, so dispatch without a tuner is identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.tuner.rails import TailRailSelector
from repro.util.errors import ConfigurationError

__all__ = ["ClusterTuner", "RailsConfig", "TailRailSelector", "TunerConfig"]


def _reject_unknown(spec: Mapping[str, Any], known: tuple, where: str) -> None:
    for key in spec:
        if key not in known:
            raise ConfigurationError(
                f"unknown {where} key {key!r} (known: {sorted(known)})"
            )


@dataclass(frozen=True, slots=True)
class RailsConfig:
    """Tail-acting rail selection: prefer rails within the p99 budget.

    Parameters
    ----------
    p99_budget_us:
        A rail whose service-time sketch p99 is at or below this is
        "within budget" and preferred (best p99 first); rails above it
        are tried last.
    min_samples:
        Sketch observations a rail needs before its tail is trusted;
        rails with fewer keep their original position.
    refresh_every:
        Scheduling passes between re-reads of the tail view (ordering
        is cached in between — quantile queries are not free).
    """

    p99_budget_us: float = 1000.0
    min_samples: int = 32
    refresh_every: int = 32

    def __post_init__(self) -> None:
        if self.p99_budget_us <= 0:
            raise ConfigurationError(
                f"p99_budget_us must be > 0, got {self.p99_budget_us}"
            )
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.refresh_every < 1:
            raise ConfigurationError(
                f"refresh_every must be >= 1, got {self.refresh_every}"
            )

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "RailsConfig":
        _reject_unknown(spec, cls.__slots__, "tuner rails")
        return cls(**dict(spec))


@dataclass(frozen=True, slots=True)
class TunerConfig:
    """The scenario ``"tuner"`` block: the :class:`RailsConfig` of its
    ``rails`` key."""

    rails: RailsConfig = RailsConfig()

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "TunerConfig":
        """Build from a scenario mapping, rejecting unknown keys."""
        _reject_unknown(spec, cls.__slots__, "tuner")
        return cls(RailsConfig.from_spec(spec.get("rails", {})))


class ClusterTuner:
    """A cluster's rail selectors, one per engine, installed as one unit."""

    def __init__(self, config: TunerConfig) -> None:
        self.config = config
        self.selectors: dict[str, TailRailSelector] = {}

    def install(self, cluster: Any) -> None:
        """Attach one selector per engine of a ``Cluster`` or live peer
        (after its observability plane)."""
        if cluster.engine_kind != "optimizing":
            raise ConfigurationError(
                "the tuner requires the optimizing engine "
                f"(cluster runs {cluster.engine_kind!r})"
            )
        for name, engine in cluster.engines.items():
            if engine.rail_selector is not None:
                raise ConfigurationError(
                    f"a rail selector is already installed on {name}"
                )
            if engine.tail_view is None:
                raise ConfigurationError(
                    "tuner rails act on recorded tails and observability.trace "
                    f'is off on {name}: add an "observability" block (sim) or '
                    "trace the live run"
                )
            selector = TailRailSelector(engine.tail_view, self.config.rails)
            engine.rail_selector = self.selectors[name] = selector

    def summary(self) -> dict:
        """Per-node selector state (CLI report, ``repro run --json``)."""
        return {
            "nodes": {
                name: {"rails": selector.summary()}
                for name, selector in self.selectors.items()
            }
        }
