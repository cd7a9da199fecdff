"""Tail-acting rail selection: the scheduler acts on tails.

Every NIC keeps the service times of its last
:data:`~repro.network.nic.SERVICE_WINDOW` sends
(:attr:`~repro.network.nic.NIC.service_us`, send to idle).  Installed
as ``engine.rail_selector``, this reorders the engine's driver
iteration so the backlog head lands on rails whose p99 over that window
is within budget instead of whichever rail happens to be listed first.
The p99 is exact (:func:`repro.util.stats.percentiles`) and needs no
tracing, so a tuned run decides the same traced or untraced.

Ordering, computed from the windows and cached between refreshes:

1. rails **within** the p99 budget (and with enough samples to trust),
   best p99 first;
2. rails with **insufficient data**, in their original positions —
   never punish a rail for being unmeasured;
3. rails **over** budget, least-bad p99 first.

So when every measured rail is over budget, the unmeasured ones are
tried first and the measured ones follow least-bad first.  The
selector reads rail service time only; edge latency objectives are
verdicts on the trace after the run (:mod:`repro.obs.tails`), not
inputs here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.util.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover
    from repro.drivers.base import Driver
    from repro.tuner import RailsConfig

__all__ = ["TailRailSelector"]


class TailRailSelector:
    """Per-rail p99-budget preference order over an engine's drivers."""

    def __init__(self, config: "RailsConfig") -> None:
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
        within: list[tuple[float, int, "Driver"]] = []
        unknown: list["Driver"] = []
        over: list[tuple[float, int, "Driver"]] = []
        buckets: dict[str, str] = {}
        for index, driver in enumerate(drivers):
            nic = driver.nic.name
            window = driver.nic.service_us
            if len(window) < config.min_samples:
                unknown.append(driver)
                buckets[nic] = "unmeasured"
                continue
            (p99_us,) = percentiles(window, (99.0,))
            if p99_us <= config.p99_budget_us:
                within.append((p99_us, index, driver))
                buckets[nic] = "within"
            else:
                over.append((p99_us, index, driver))
                buckets[nic] = "over"
        self.last_buckets = buckets
        within.sort()
        over.sort()
        return [d for _, _, d in within] + unknown + [d for _, _, d in over]

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
