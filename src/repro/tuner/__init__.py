"""Tail-acting rail selection: the scheduler acts on the tails its NICs measure.

A scenario ``"tuner"`` block installs one
:class:`~repro.tuner.rails.TailRailSelector` per engine as
``engine.rail_selector``, in the sim and live planes alike, traced or
not: the selector reads each NIC's own window of service times
(:attr:`~repro.network.nic.NIC.service_us`).  Its number:
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
it, and so is a ``min_samples`` no window can reach — a knob silently
ignored would invalidate the run it was meant to tune.  Nothing else is
touched: ``engine.strategy`` stays the object the scenario's strategy
factory returned, and without the block no selector exists, so dispatch
without a tuner is identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.network.nic import SERVICE_WINDOW
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
        A rail whose service-time p99 (over its NIC's window) is at or
        below this is "within budget" and preferred (best p99 first);
        rails above it are tried last.
    min_samples:
        Spans a rail's window needs before its tail is trusted; rails
        with fewer keep their original position.  At most
        :data:`~repro.network.nic.SERVICE_WINDOW`.
    refresh_every:
        Scheduling passes between re-reads of the windows (ordering is
        cached in between — quantile queries are not free).
    """

    p99_budget_us: float = 1000.0
    min_samples: int = 32
    refresh_every: int = 32

    def __post_init__(self) -> None:
        if self.p99_budget_us <= 0:
            raise ConfigurationError(
                f"p99_budget_us must be > 0, got {self.p99_budget_us}"
            )
        if not 1 <= self.min_samples <= SERVICE_WINDOW:
            raise ConfigurationError(
                f"min_samples must be in [1, {SERVICE_WINDOW}] (the NIC "
                f"service window), got {self.min_samples}"
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
        """Attach one selector per engine of a ``Cluster`` or live peer."""
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
            selector = TailRailSelector(self.config.rails)
            engine.rail_selector = self.selectors[name] = selector

    def summary(self) -> dict:
        """Per-node selector state (CLI report, ``repro run --json``)."""
        return {
            "nodes": {
                name: {"rails": selector.summary()}
                for name, selector in self.selectors.items()
            }
        }
