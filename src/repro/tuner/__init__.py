"""The online adaptation plane: sweeps and rail selection behind one hook.

``repro/tuner/`` is the controller the paper's thesis calls for: the
optimizer should not run one fixed configuration per session but adapt
to the workload it actually observes.  One :class:`Tuner` sits beside
each engine (sim and live planes alike) and closes two loops:

* **online parameter sweeps** — a
  :class:`~repro.tuner.sweep.SweepController` runs epsilon-greedy or
  successive-halving trials over the lookahead window and rearrangement
  budget, scored by live engine counters (the paper's own future work);
  it is stepped once per scheduling decision by :class:`TunedStrategy`,
  the per-decision hook wrapped around the engine's strategy;
* **tail-acting rail selection** — a
  :class:`~repro.tuner.rails.TailRailSelector` reorders the engine's
  rails by observed p99 against a budget, *acting* on the telemetry the
  tail view collects.

The escape hatch is structural: with ``tuner: off`` (the default)
nothing here is imported into the hot path — no wrapper, no selector,
no per-decision hook — so dispatch is byte-identical to a tuner-less
build (``tests/tuner/test_tuner.py`` pins exactly that).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies.base import Strategy
from repro.drivers.base import Driver
from repro.tuner.config import RailsConfig, SweepConfig, TunerConfig
from repro.tuner.rails import TailRailSelector
from repro.tuner.sweep import SweepController
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase
    from repro.obs.tails import TailView
    from repro.runtime.cluster import Cluster

__all__ = [
    "ClusterTuner",
    "RailsConfig",
    "SweepConfig",
    "SweepController",
    "TailRailSelector",
    "TunedStrategy",
    "Tuner",
    "TunerConfig",
]


class TunedStrategy(Strategy):
    """The per-decision hook behind the existing strategy interface.

    Installed by the tuner in place of the engine's strategy (never via
    the registry — it is infrastructure, not a scenario-selectable
    policy).  Each ``make_plan`` call lets the tuner observe the
    decision (sweep stepping), then delegates to the wrapped strategy.
    """

    name = "tuned"

    def __init__(self, inner: Strategy, tuner: "Tuner") -> None:
        self.inner = inner
        self._tuner = tuner

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        self._tuner.on_decision()
        return self.inner.make_plan(engine, driver)

    def explain_last(self) -> dict | None:
        explain: dict = {"inner_strategy": type(self.inner).name}
        inner = self.inner.explain_last()
        if inner:
            explain.update(inner)
        return explain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TunedStrategy({self.inner!r})"


class Tuner:
    """One engine's online controller (install → observe → adapt)."""

    def __init__(
        self,
        engine: "CommEngineBase",
        config: TunerConfig | None = None,
        tail_view: "TailView | None" = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else TunerConfig()
        self.tail_view = tail_view if tail_view is not None else engine.tail_view
        #: Scheduling decisions observed since install.
        self.decisions = 0
        self.sweep: SweepController | None = None
        self.rail_selector: TailRailSelector | None = None
        self._installed = False

    def install(self) -> None:
        """Wrap the engine's strategy and attach the sub-controllers."""
        if self._installed:
            raise ConfigurationError("tuner is already installed on this engine")
        self._installed = True
        engine = self.engine
        if self.config.sweep is not None:
            # Sweeps mutate config values; give this engine a private
            # copy so a config object shared across nodes stays put.
            engine.config = replace(engine.config)
            self.sweep = SweepController(engine, self.config.sweep)
        if self.config.rails is not None and self.tail_view is not None:
            self.rail_selector = TailRailSelector(self.tail_view, self.config.rails)
            engine.rail_selector = self.rail_selector
        engine.strategy = TunedStrategy(engine.strategy, self)

    def on_decision(self) -> None:
        """Observe one decision (called by :meth:`TunedStrategy.make_plan`)."""
        self.decisions += 1
        if self.sweep is not None:
            self.sweep.step()

    def summary(self) -> dict:
        """JSON-able controller state (CLI, ``/tuner``, FLUSH mirror)."""
        out: dict = {"decisions": self.decisions}
        if self.sweep is not None:
            out["sweep"] = self.sweep.summary()
        if self.rail_selector is not None:
            out["rails"] = self.rail_selector.summary()
        return out


class ClusterTuner:
    """All of a cluster's per-engine tuners, installed as one unit."""

    def __init__(self, config: TunerConfig | None = None) -> None:
        self.config = config if config is not None else TunerConfig()
        self.tuners: dict[str, Tuner] = {}
        self._installed = False

    def install(self, cluster: "Cluster") -> None:
        """Attach one tuner per engine (after observability install)."""
        if self._installed:
            raise ConfigurationError("cluster tuner is already installed")
        if cluster.engine_kind != "optimizing":
            raise ConfigurationError(
                "the tuner requires the optimizing engine "
                f"(cluster runs {cluster.engine_kind!r})"
            )
        self._installed = True
        for name, engine in cluster.engines.items():
            tuner = Tuner(engine, self.config)
            tuner.install()
            self.tuners[name] = tuner

    def summary(self) -> dict:
        """Per-node tuner state plus cluster-level totals."""
        nodes = {name: tuner.summary() for name, tuner in self.tuners.items()}
        return {
            "nodes": nodes,
            "totals": {
                "decisions": sum(t.decisions for t in self.tuners.values()),
            },
        }
