"""Shared greedy packet builder used by the predefined strategies.

One walk over a channel queue's pending snapshot, in arrival order,
maintaining per-flow blocking state so the result always satisfies the
:class:`~repro.core.constraints.ConstraintChecker` rules:

* taking an entry after skipping a non-deferrable earlier entry of the
  same flow is forbidden → skipped flows are blocked for the rest of
  the walk (``PackMode.LATER`` entries don't block);
* SAFER fragments and rendezvous bulk travel alone;
* oversized entries are parked for rendezvous (when allowed) instead of
  riding the packet;
* the aggregate payload never exceeds the driver's
  ``max_aggregate_size`` and the item count never exceeds
  ``max_items``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core import kernel
from repro.core.plan import PlanItem, TransferPlan
from repro.core.waiting import ChannelQueue
from repro.drivers.base import Driver
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.wire import PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CommEngineBase

__all__ = ["build_from_queue", "park_oversized"]

_CONTROL_PACKET_KIND = {
    EntryKind.RDV_REQ: PacketKind.RDV_REQ,
    EntryKind.RDV_ACK: PacketKind.RDV_ACK,
}


def park_oversized(engine: "CommEngineBase", driver: Driver, queue: ChannelQueue) -> int:
    """Park every pending oversized entry of a queue for rendezvous.

    Returns the number of entries parked.  Used by the search strategy
    to make candidate generation side-effect free.
    """
    parked = 0
    for entry in queue.pending_view(engine.config.lookahead_window):
        if (
            entry.kind is EntryKind.DATA
            and entry._state is EntryState.WAITING
            and not entry.meta.get("no_rdv")
            and driver.wants_rendezvous(entry.remaining)
            and driver.nic.reaches(entry.dst)
        ):
            engine.park_for_rendezvous(entry, queue.channel_id)
            parked += 1
    return parked


def build_from_queue(
    engine: "CommEngineBase",
    driver: Driver,
    queue: ChannelQueue,
    *,
    max_items: int,
    same_message_only: bool = False,
    skip_seeds: int = 0,
    allow_park: bool = True,
    protocol_only: bool = False,
    pending: Sequence[SubmitEntry] | None = None,
) -> TransferPlan | None:
    """Greedily build one packet from a channel queue (see module docs).

    ``skip_seeds`` makes the builder pass over the first *n* would-be
    seed entries, producing alternative legal plans for the bounded
    search; ``same_message_only`` restricts aggregation to fragments of
    the seed's message (the legacy Madeleine behaviour);
    ``protocol_only`` ignores plain waiting data and only emits control
    or rendezvous-bulk packets (used while a legacy channel is stalled
    behind a rendezvous); ``pending`` lets a caller evaluating many
    candidates over an unchanged queue reuse one window snapshot
    instead of re-materializing it per candidate.
    """
    config = engine.config
    if pending is None and not same_message_only and not protocol_only:
        # Array fast path: walk the queue's flat mirror instead of the
        # entry objects.  Only taken when the driver's constant fold is
        # exact (stock driver/link methods); the object walk below stays
        # the reference for every mode the arrays cannot express.
        consts = kernel.constants_for(driver)
        if consts.exact:
            built = kernel.build_eager_arrays(
                queue.pending_arrays(config.lookahead_window),
                consts,
                engine,
                driver,
                queue.channel_id,
                max_items,
                skip_seeds,
                allow_park,
                config.stripe_chunk,
                len(engine.drivers) > 1,
            )
            if built is None:
                return None
            if type(built) is kernel.SeedBuild:
                return built.plan(built.n_items)
            return built
    if pending is None:
        # The lookahead window bounds *optimization* lookahead; a
        # protocol-only pass must reach control/rendezvous entries
        # wherever they sit, or a stalled channel with a deep data
        # backlog deadlocks (the protocol entry that would unblock it
        # hides beyond the window).
        pending = queue.pending_view(None if protocol_only else config.lookahead_window)
    items: list[PlanItem] = []
    taken_bytes = 0
    blocked_flows: set[int] = set()
    dst: str | None = None
    first_message = None
    seeds_skipped = 0
    budget = driver.caps.max_aggregate_size

    def block(entry) -> None:
        if entry.flow is not None and not entry.deferrable:
            blocked_flows.add(entry.flow.flow_id)

    for entry in pending:
        flow_id = entry.flow.flow_id if entry.flow is not None else None
        if flow_id is not None and flow_id in blocked_flows:
            continue
        if not driver.nic.reaches(entry.dst):
            block(entry)
            continue
        if not items and seeds_skipped < skip_seeds:
            seeds_skipped += 1
            block(entry)
            continue

        # Rendezvous bulk: always alone, exempt from FIFO blocking.
        # (``_state`` read directly: the property indirection costs at
        # per-entry walk frequency.)
        if entry._state is EntryState.RDV_READY:
            if items:
                continue
            take = entry.remaining
            if config.stripe_chunk is not None and len(engine.drivers) > 1:
                take = min(take, config.stripe_chunk)
            return TransferPlan(
                driver,
                PacketKind.RDV_DATA,
                entry.dst,
                queue.channel_id,
                [PlanItem(entry, take)],
            )

        # Engine-generated control traffic: always alone, no flow.
        if entry.is_control:
            if items:
                continue
            return TransferPlan(
                driver,
                _CONTROL_PACKET_KIND[entry.kind],
                entry.dst,
                queue.channel_id,
                [PlanItem(entry, entry.remaining)],
                meta=dict(entry.meta),
            )

        if protocol_only:
            # Plain waiting data stays queued (stalled legacy channel);
            # it is not a reordering, so it must not block later picks.
            continue

        # Oversized data must negotiate a rendezvous first — unless the
        # handshake already timed out (``no_rdv``): then the entry is
        # chunked into eager packets below, like on a rendezvous-less
        # driver.
        if driver.wants_rendezvous(entry.remaining) and not entry.meta.get("no_rdv"):
            if allow_park:
                # Parked out of band (removed from the queue); later
                # same-flow eager entries may proceed — the documented
                # FIFO relaxation for rendezvous.
                engine.park_for_rendezvous(entry, queue.channel_id)
            else:
                # Not parked: it stays queued, so it blocks its flow
                # like any other skipped non-deferrable entry.
                block(entry)
            continue

        # SAFER fragments travel alone.
        if not entry.aggregatable:
            if items:
                block(entry)
                continue
            return TransferPlan(
                driver,
                PacketKind.EAGER,
                entry.dst,
                queue.channel_id,
                [PlanItem(entry, entry.remaining)],
            )

        if dst is None:
            dst = entry.dst
            first_message = entry.message
        elif entry.dst != dst or (
            same_message_only and entry.message is not first_message
        ):
            block(entry)
            continue

        space = budget - taken_bytes
        if entry.remaining <= space:
            take = entry.remaining
        elif not items:
            # Chunk an over-budget entry (drivers without rendezvous).
            take = min(entry.remaining, budget)
        else:
            block(entry)
            continue
        items.append(PlanItem(entry, take))
        taken_bytes += take
        if len(items) >= max_items or taken_bytes >= budget:
            break

    if items:
        assert dst is not None
        return TransferPlan(driver, PacketKind.EAGER, dst, queue.channel_id, items)
    return None
