"""The decision oracle: entry-object walk and naive candidate search.

``src/`` decides packets in exactly one way — the array walk of
:mod:`repro.core.kernel` behind ``_builder.build_from_queue``, and the
batched :class:`~repro.core.strategies.search.BoundedSearchStrategy`.
This module is the reference implementation those are compared against:
the walk over :class:`~repro.madeleine.submit.SubmitEntry` objects that
asks the driver per entry, and the search that builds and scalar-scores
every (seed, width) candidate.  It is test code on purpose: nothing
under ``src/`` imports, selects or knows about it.

Tests reach it three ways:

* call :func:`build_from_queue` / :func:`park_oversized` directly;
* hand an engine an :class:`OracleSearchStrategy`;
* :func:`use_object_walk` — patch the production entry points for the
  rest of a test, so a whole run (any strategy stack, the legacy
  engine) decides through the oracle.
"""

from __future__ import annotations

import sys
from typing import Sequence

import pytest

from repro.core.plan import PlanItem, TransferPlan
from repro.core.strategies import _builder
from repro.core.strategies.search import BoundedSearchStrategy
from repro.core.waiting import ChannelQueue
from repro.drivers.base import Driver
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.wire import PacketKind

__all__ = [
    "build_from_queue",
    "park_oversized",
    "OracleSearchStrategy",
    "use_object_walk",
]

_CONTROL_PACKET_KIND = {
    EntryKind.RDV_REQ: PacketKind.RDV_REQ,
    EntryKind.RDV_ACK: PacketKind.RDV_ACK,
}


def park_oversized(engine, driver: Driver, queue: ChannelQueue) -> int:
    """Park every pending oversized entry of a queue for rendezvous.

    Returns the number of entries parked.  The reference search runs it
    up front so candidate generation is side-effect free.
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
    engine,
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
    behind a rendezvous); ``pending`` lets the reference search reuse
    one window snapshot for every candidate of a queue.
    """
    config = engine.config
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


class OracleSearchStrategy(BoundedSearchStrategy):
    """The naive enumeration the batched search must reproduce: one
    object-walk build per seed, one scalar ``CostModel.score`` per
    (seed, width) candidate, same budget accounting."""

    def make_plan(self, engine, driver) -> TransferPlan | None:
        budget = self.budget if self.budget is not None else engine.config.search_budget
        queues = engine.queues_for(driver)
        # Rendezvous parking is a protocol action, not a rearrangement;
        # do it once up front so candidate generation has no side effects.
        for queue in queues:
            park_oversized(engine, driver, queue)

        now = engine.sim.now
        if now != self._cache_now:
            self._score_cache.clear()
            self._cache_now = now
        cache = self._score_cache
        cost = engine.cost
        window_limit = engine.config.lookahead_window

        best_plan: TransferPlan | None = None
        best: tuple | None = None  # (score, channel, seed) of the winner
        best_score = float("-inf")
        widest_seen = 0
        evaluated = 0
        out_of_budget = False
        # Explainability is collected only while a trace sink is live;
        # with the NullTracer the extra work is two dead branches.
        explain = engine.sim.tracer.enabled
        full_width = driver.max_segments_per_packet()
        widths = self._widths(full_width)
        for queue in queues:
            # One snapshot per queue, shared by every candidate build.
            pending = queue.pending_view(window_limit)
            version = queue.version
            for seed in range(len(pending)):
                if evaluated >= budget:
                    out_of_budget = True
                    break
                base = build_from_queue(
                    engine,
                    driver,
                    queue,
                    max_items=full_width,
                    skip_seeds=seed,
                    allow_park=False,
                    pending=pending,
                )
                evaluated += 1
                if base is None:
                    # Nothing is dispatchable even with every earlier
                    # seed blocked; deeper seeds only block more, so
                    # this whole queue is exhausted — move to the next
                    # queue instead of burning budget on impossible
                    # seeds.
                    break
                base_items = len(base.items)
                if explain and base_items > widest_seen:
                    widest_seen = base_items
                first = True
                for width in widths:
                    if not first:
                        if evaluated >= budget:
                            out_of_budget = True
                            break
                        evaluated += 1
                    first = False
                    n_items = base_items if width >= base_items else width
                    key = (id(driver), queue.channel_id, version, seed, n_items)
                    cached = cache.get(key)
                    if cached is None:
                        if n_items == base_items:
                            candidate = base
                        else:
                            candidate = TransferPlan(
                                base.driver,
                                base.kind,
                                base.dst,
                                base.channel_id,
                                base.items[:n_items],
                            )
                        cached = (cost.score(candidate, now), candidate)
                        cache[key] = cached
                    score, candidate = cached
                    if score > best_score:
                        best_plan, best_score = candidate, score
                        best = (score, queue.channel_id, seed)
                if out_of_budget:
                    break
            if out_of_budget:
                break
        self._account(explain, evaluated, budget, out_of_budget, widest_seen, best)
        return best_plan


def use_object_walk(monkeypatch: pytest.MonkeyPatch) -> None:
    """Route every packet decision through the oracle until
    ``monkeypatch`` is undone.

    Strategies bind ``build_from_queue`` by name at import, so every
    module global holding the production function is rebound (that
    covers ``aggregate``/``eager``/``legacy``, the example strategies
    and the test modules themselves); the search strategy is switched
    at its one method.
    """
    production = _builder.build_from_queue
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("build_from_queue") is production:
            monkeypatch.setattr(module, "build_from_queue", build_from_queue)
    monkeypatch.setattr(
        BoundedSearchStrategy, "make_plan", OracleSearchStrategy.make_plan
    )
