"""Shared greedy packet builder used by the predefined strategies.

One walk over a channel queue's pending window, in arrival order,
maintaining per-flow blocking state so the result always satisfies the
§3 rules that the test suite's ``tests/core/constraints.py`` checks:

* taking an entry after skipping a non-deferrable earlier entry of the
  same flow is forbidden → skipped flows are blocked for the rest of
  the walk (``PackMode.LATER`` entries don't block);
* SAFER fragments and rendezvous bulk travel alone;
* oversized entries are parked for rendezvous (when allowed) instead of
  riding the packet;
* the aggregate payload never exceeds the driver's
  ``max_aggregate_size`` and the item count never exceeds
  ``max_items``.

The walk itself is :func:`repro.core.kernel.build_eager_arrays`, over
the queue's flat-array mirror and the driver's folded constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core import kernel
from repro.core.plan import TransferPlan
from repro.core.waiting import ChannelQueue
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CommEngineBase

__all__ = ["build_from_queue", "seed_from_queue", "first_build"]


def seed_from_queue(
    engine: "CommEngineBase",
    driver: Driver,
    queue: ChannelQueue,
    *,
    max_items: int,
    same_message_only: bool = False,
    skip_seeds: int = 0,
    allow_park: bool = True,
    protocol_only: bool = False,
) -> "TransferPlan | kernel.SeedBuild | None":
    """Greedily build one packet from a channel queue (see module docs).

    ``skip_seeds`` makes the builder pass over the first *n* would-be
    seed entries, producing alternative legal plans;
    ``same_message_only`` restricts aggregation to fragments of the
    seed's message (the legacy Madeleine behaviour); ``protocol_only``
    ignores plain waiting data and only emits control or
    rendezvous-bulk packets (used while a legacy channel is stalled
    behind a rendezvous).

    An aggregatable eager packet comes back as the kernel's ``SeedBuild``
    (payload and age, no ``PlanItem`` built) for callers that may not send
    it — the Nagle gate; :func:`build_from_queue` is the dispatchable form.
    """
    config = engine.config
    # The lookahead window bounds *optimization* lookahead; a
    # protocol-only pass must reach control/rendezvous entries wherever
    # they sit, or a stalled channel with a deep data backlog deadlocks
    # (the protocol entry that would unblock it hides beyond the window).
    return kernel.build_eager_arrays(
        queue.pending_arrays(None if protocol_only else config.lookahead_window),
        driver.constants,
        engine,
        driver,
        queue.channel_id,
        max_items,
        skip_seeds,
        allow_park,
        config.stripe_chunk,
        len(engine.drivers) > 1,
        same_message_only,
        protocol_only,
    )


def build_from_queue(
    engine: "CommEngineBase", driver: Driver, queue: ChannelQueue, **knobs
) -> TransferPlan | None:
    """:func:`seed_from_queue` (same knobs), materialized for dispatch."""
    built = seed_from_queue(engine, driver, queue, **knobs)
    if type(built) is kernel.SeedBuild:
        return built.plan(built.n_items)
    return built


def first_build(
    engine: "CommEngineBase", driver: Driver, build: Callable, max_items: int | None = None
):
    """The first packet in channel service order: ``build`` over each
    non-empty queue ``driver`` may serve, until one yields.  ``max_items``
    caps its segments (None: the driver's bound)."""
    if max_items is None:
        max_items = driver.max_segments_per_packet()
    for queue in engine.queues_for(driver):
        built = build(engine, driver, queue, max_items=max_items)
        if built is not None:
            return built
    return None
