"""Tail-acting rail selection: the scheduler acts on tails.

The observability plane keeps per-rail service-time quantile sketches
behind a :class:`~repro.obs.tails.TailView`.  Installed as
``engine.rail_selector``, this reorders the engine's driver iteration so
the backlog head lands on rails whose observed p99 is within budget
instead of whichever rail happens to be listed first.

Ordering, computed from the tail view and cached between refreshes:

1. rails **within** the p99 budget (and with enough samples to trust),
   best p99 first;
2. rails with **insufficient data**, in their original positions —
   never punish a rail for being unmeasured;
3. rails **over** budget, least-bad p99 first — but only demoted below
   the unmeasured ones when the SLO is actually burning (or no SLO is
   configured); a healthy SLO with over-budget rails means the budget
   is conservative, and churn would be gratuitous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.obs.tails import TailView, evaluate_slo

if TYPE_CHECKING:  # pragma: no cover
    from repro.drivers.base import Driver
    from repro.tuner import RailsConfig

__all__ = ["TailRailSelector"]


class TailRailSelector:
    """Per-rail p99-budget preference order over an engine's drivers."""

    def __init__(self, tail_view: TailView, config: "RailsConfig") -> None:
        self.tail_view = tail_view
        self.config = config
        self.refreshes = 0
        #: Most recent ordering decision, for reports: nic → bucket.
        self.last_buckets: dict[str, str] = {}
        self._calls = 0
        self._cached: list["Driver"] | None = None
        self._cached_ids: tuple[int, ...] = ()

    def order(self, drivers: Sequence["Driver"]) -> Sequence["Driver"]:
        """The driver service order for one pump pass."""
        ids = tuple(id(d) for d in drivers)
        if (
            self._cached is None
            or ids != self._cached_ids
            or self._calls >= self.config.refresh_every
        ):
            self._cached = self._compute(list(drivers))
            self._cached_ids = ids
            self._calls = 0
            self.refreshes += 1
        self._calls += 1
        return self._cached

    def _compute(self, drivers: list["Driver"]) -> list["Driver"]:
        config = self.config
        view = self.tail_view
        within: list[tuple[float, int, "Driver"]] = []
        unknown: list["Driver"] = []
        over: list[tuple[float, int, "Driver"]] = []
        buckets: dict[str, str] = {}
        for index, driver in enumerate(drivers):
            nic = driver.nic.name
            stats = view.rail(nic)
            if stats is None or stats.count < config.min_samples:
                unknown.append(driver)
                buckets[nic] = "unmeasured"
            elif stats.p99_us <= config.p99_budget_us:
                within.append((stats.p99_us, index, driver))
                buckets[nic] = "within"
            else:
                over.append((stats.p99_us, index, driver))
                buckets[nic] = "over"
        self.last_buckets = buckets
        if not over:
            if not within:
                return drivers  # nothing measured: keep the original order
            within.sort()
            return [d for _, _, d in within] + unknown
        if within:
            within.sort()
            over.sort()
            return [d for _, _, d in within] + unknown + [d for _, _, d in over]
        # Every measured rail is over budget: fall back on SLO burn.
        # A burning (or absent) SLO justifies least-bad-first emergency
        # ordering; a healthy SLO keeps the original order.
        if self._slo_burning():
            over.sort()
            return unknown + [d for _, _, d in over]
        return drivers

    def _slo_burning(self) -> bool:
        objectives = self.tail_view.objectives
        if not objectives:
            return True
        statuses = evaluate_slo(self.tail_view.registry, objectives)
        return any(s.worst_burn >= 1.0 for s in statuses)

    def summary(self) -> dict:
        """JSON-able state (CLI report, ``repro run --json``)."""
        return {
            "p99_budget_us": self.config.p99_budget_us,
            "refreshes": self.refreshes,
            "buckets": dict(self.last_buckets),
            "order": (
                [d.nic.name for d in self._cached]
                if self._cached is not None
                else None
            ),
        }
