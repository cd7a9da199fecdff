"""Message-structure constraints on optimizer decisions.

Paper §3: message internal dependencies "are taken into account as
limiting factors — or constraints — by the scheduler while estimating the
value of a given packet reordering operation".  The decision walk
(``repro.core.kernel``) builds every plan to satisfy them; this module
re-derives them independently, as a test instrument.  The root
``tests/conftest.py`` runs :meth:`ConstraintChecker.check` before every
in-process dispatch of the test suite, and the ``plan_valid`` entry of
``tests/invariants.py`` names it.  Production has no such check: the
engine→NIC boundary is ``Driver.validate`` (``CapabilityError``).

The rules
---------
1. **Single destination / single channel** — a plan maps to one wire
   packet.
2. **Flow FIFO with LATER skips** — the DATA entries a plan takes from
   one flow must be that flow's oldest pending entries, except that
   ``PackMode.LATER`` entries may be skipped (overtaken).
3. **SAFER isolation** — a SAFER fragment travels alone (no other item
   in the same plan).
4. **Rendezvous isolation** — RDV_READY bulk data is never aggregated
   with anything else.
5. **Capability fit** — an EAGER plan's payload must fit the driver's
   ``max_aggregate_size``; oversized entries must go through rendezvous
   instead, unless their handshake already timed out (``no_rdv``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.plan import TransferPlan
from repro.madeleine.message import PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.wire import PacketKind
from repro.util.errors import ReproError

__all__ = ["ConstraintChecker", "ConstraintViolation"]


class ConstraintViolation(ReproError):
    """A plan breaks one of the message-structure rules above."""


class ConstraintChecker:
    """Validates transfer plans against the constraint rules above."""

    def check(self, plan: TransferPlan, channel_pending: Sequence[SubmitEntry]) -> None:
        """Raise :class:`ConstraintViolation` if the plan is illegal.

        ``channel_pending`` is the arrival-ordered pending snapshot of
        the plan's channel *at decision time* (what the strategy saw).
        """
        self._check_single_target(plan)
        self._check_isolation(plan)
        self._check_capabilities(plan)
        self._check_flow_fifo(plan, channel_pending)

    # ------------------------------------------------------------------
    # individual rules
    # ------------------------------------------------------------------
    def _check_single_target(self, plan: TransferPlan) -> None:
        for entry in plan.entries:
            if entry.dst != plan.dst:
                raise ConstraintViolation(
                    f"plan mixes destinations {plan.dst!r} and {entry.dst!r}"
                )

    def _check_isolation(self, plan: TransferPlan) -> None:
        if len(plan.items) == 1:
            return
        for entry in plan.entries:
            if not entry.aggregatable:
                reason = (
                    "SAFER fragment"
                    if entry.fragment is not None and entry.fragment.mode is PackMode.SAFER
                    else "non-aggregatable entry"
                )
                raise ConstraintViolation(
                    f"{reason} {entry!r} aggregated with "
                    f"{len(plan.items) - 1} other item(s)"
                )

    def _check_capabilities(self, plan: TransferPlan) -> None:
        caps = plan.driver.caps
        if plan.kind is PacketKind.EAGER:
            if plan.payload_bytes > caps.max_aggregate_size:
                raise ConstraintViolation(
                    f"eager plan of {plan.payload_bytes} B exceeds "
                    f"max_aggregate_size={caps.max_aggregate_size}"
                )
            for item in plan.items:
                entry = item.entry
                if (
                    entry.kind is EntryKind.DATA
                    and entry.state is EntryState.WAITING
                    and item.take == entry.remaining
                    and entry.remaining > caps.eager_threshold
                    and caps.supports_rdv
                    and not entry.meta.get("no_rdv")
                ):
                    raise ConstraintViolation(
                        f"{entry!r} ({entry.remaining} B) must use "
                        f"rendezvous on {plan.driver.name} "
                        f"(eager_threshold={caps.eager_threshold})"
                    )
        if plan.kind is PacketKind.RDV_DATA:
            for entry in plan.entries:
                if entry.state is not EntryState.RDV_READY:
                    raise ConstraintViolation(
                        f"RDV_DATA plan includes {entry!r} in state "
                        f"{entry.state.value}"
                    )

    def _check_flow_fifo(
        self, plan: TransferPlan, channel_pending: list[SubmitEntry]
    ) -> None:
        taken = {item.entry for item in plan.items}
        skipped_flows: set[int] = set()
        for entry in channel_pending:
            if entry.flow is None or entry.kind is not EntryKind.DATA:
                continue  # control entries carry no FIFO obligation
            if entry.state is EntryState.RDV_READY:
                continue  # parked bulk re-entered the queue; exempt from FIFO
            flow_id = entry.flow.flow_id
            if entry in taken:
                if flow_id in skipped_flows:
                    raise ConstraintViolation(
                        f"plan takes {entry!r} of flow "
                        f"{entry.flow.name!r} after skipping a non-deferrable "
                        f"earlier entry of the same flow"
                    )
            else:
                if not entry.deferrable:
                    skipped_flows.add(flow_id)
