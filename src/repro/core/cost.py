"""Plan cost/score model.

"Estimating the value of a given packet reordering operation" (paper §3)
needs a number.  The model here is capability-parameterized through the
plan's driver: the same strategy code scores differently on MX and Elan
because their α/β/copy/gather structures differ.

``occupancy`` — predicted NIC busy time of the plan (what the request
*costs*).

``score`` — value density with two corrections:

* every included entry is credited one request start-up's worth of
  bytes (α·β): aggregating it into this packet saves the α a dedicated
  packet would have paid — without this, density scoring is myopic and
  prefers narrow plans;
* staleness multiplies the score by a *bounded* boost (≤ 2×): starving
  entries eventually win ties, but staleness can never make a tiny
  packet out-score a far more efficient aggregate (an unbounded aging
  credit divided by a tiny occupancy does exactly that).

Control plans get a strong fixed urgency — delaying a rendezvous ACK
stalls a bulk transfer end to end.

A plan is priced once: :meth:`CostModel.terms` computes every term from
the plan's aggregates, and ``score`` / ``breakdown`` / ``occupancy``
reduce a :class:`~repro.core.plan.TransferPlan` to those aggregates.
The bounded search prices its unbuilt candidates through the same
:meth:`~CostModel.terms` straight from prefix aggregates, so a candidate
scores the same float built or not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import TransferPlan
from repro.drivers.capabilities import DriverConstants
from repro.network.model import TransferMode
from repro.network.wire import (
    HEADER_BYTES_PER_SEGMENT,
    PACKET_HEADER_BYTES,
)

__all__ = ["CostModel"]

#: Names of the terms ``CostModel.terms`` returns, in order.
_BREAKDOWN_TERMS = (
    "wire_bytes",
    "payload_bytes",
    "control_bonus_bytes",
    "startup_saved_bytes",
    "occupancy_s",
    "density",
    "oldest_wait_s",
    "staleness_boost",
    "score",
)

_PIO = TransferMode.PIO


@dataclass(frozen=True, slots=True)
class CostModel:
    """Scores transfer plans for strategy ranking.

    Parameters
    ----------
    starvation_horizon:
        Waiting time (s) at which the staleness boost saturates at 2×.
    control_bonus_bytes:
        Virtual payload credited to control plans so REQ/ACK traffic is
        never starved by byte-count scoring.
    """

    starvation_horizon: float = 1e-3
    control_bonus_bytes: float = 4096.0

    def terms(
        self,
        consts: DriverConstants,
        n_items: int,
        payload_bytes: int,
        oldest_submit: float,
        now: float,
        control: bool = False,
    ) -> tuple[float, ...]:
        """Every term of the score, in :meth:`breakdown` order (the score
        itself last), from a plan's aggregates.

        ``consts`` is the plan driver's ``constants``; a control plan is
        one item and no payload segment.  The only computation
        of the price: dispatch order rides on exact float comparisons,
        so every caller must read this one.
        """
        if control:
            size = PACKET_HEADER_BYTES + payload_bytes
            control_bonus = self.control_bonus_bytes
        else:
            size = PACKET_HEADER_BYTES + n_items * HEADER_BYTES_PER_SEGMENT + payload_bytes
            control_bonus = 0.0
        copied_bytes, gather_entries = consts.aggregation(n_items, payload_bytes)
        mode = consts.mode(payload_bytes)
        occupancy = consts.sender_occupancy(
            size, mode, copied_bytes=copied_bytes, gather_entries=gather_entries
        )
        payload = float(payload_bytes)
        saved = n_items * (
            consts.startup_equiv_pio if mode is _PIO else consts.startup_equiv_dma
        )
        density = (payload + control_bonus + saved) / occupancy
        oldest_wait = now - oldest_submit
        ratio = (oldest_wait if oldest_wait > 0.0 else 0.0) / self.starvation_horizon
        boost = 1.0 + (ratio if ratio < 1.0 else 1.0)
        return (
            float(size),
            payload,
            control_bonus,
            saved,
            occupancy,
            density,
            oldest_wait,
            boost,
            density * boost,
        )

    def _plan_terms(self, plan: TransferPlan, now: float) -> tuple[float, ...]:
        """:meth:`terms` of a materialized plan."""
        control = plan.kind.is_control
        items = plan.items
        return self.terms(
            plan.driver.constants,
            1 if control else len(items),
            plan.payload_bytes,
            min(item.entry.submit_time for item in items),
            now,
            control,
        )

    def wire_bytes(self, plan: TransferPlan) -> int:
        """Predicted on-wire size of the plan's packet (with framing)."""
        return int(self._plan_terms(plan, 0.0)[0])

    def occupancy(self, plan: TransferPlan) -> float:
        """Predicted sender-side NIC busy time of the plan."""
        return self._plan_terms(plan, 0.0)[4]

    def score(self, plan: TransferPlan, now: float) -> float:
        """Value density of the plan (higher is better); see module docs."""
        return self._plan_terms(plan, now)[-1]

    def breakdown(self, plan: TransferPlan, now: float) -> dict[str, float]:
        """The :meth:`score` computation, term by term (the
        ``optimizer.decide`` trace record)."""
        return dict(zip(_BREAKDOWN_TERMS, self._plan_terms(plan, now)))
