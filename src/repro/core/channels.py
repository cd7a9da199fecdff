"""Channel assignment policies (paper §2).

The scheduler has "global control on the network multiplexing resources"
and may assign them "to different classes of traffic", rebalance, or
fall back to one-to-one flow mapping.  A :class:`ChannelPolicy` decides

* which channel each submit entry queues on (``channel_for_entry``), and
* the order in which an idle driver visits non-empty channel queues
  (``service_order``) — this is where class priorities live.

Policies may be swapped or re-parameterized at run time; entries already
queued keep their channel, new entries follow the new mapping — the
paper's "dynamically change the assignment of networking resources to
traffic classes".

The rails are assigned the same way: a pump visits its engine's drivers
in listed order, or in the order a :class:`TailRailOrder` gives — the
rails whose measured service-time p99 is within budget first.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro.core.waiting import ChannelQueue
from repro.madeleine.submit import SubmitEntry
from repro.network.nic import SERVICE_WINDOW
from repro.network.virtual import ChannelPool, TrafficClass
from repro.util.errors import ConfigurationError
from repro.util.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover
    from repro.drivers.base import Driver

__all__ = [
    "ChannelPolicy",
    "PooledChannels",
    "WeightedChannels",
    "OneToOneChannels",
    "TailRailOrder",
]


class ChannelPolicy(abc.ABC):
    """Maps entries to channels and orders channel service."""

    name: ClassVar[str] = "abstract"
    #: ``service_order`` changes only with ``note_dispatch`` / ``note_rail_event``,
    #: never by being called: the engine may skip pumps a standing Hold answers.
    stable_service_order: ClassVar[bool] = False

    @abc.abstractmethod
    def setup(self, pool: ChannelPool, max_channels: int) -> None:
        """Create this policy's channels in the node's pool."""

    @abc.abstractmethod
    def channel_for_entry(self, entry: SubmitEntry) -> int:
        """The channel id an entry should queue on."""

    def service_order(self, queues: Sequence[ChannelQueue]) -> list[ChannelQueue]:
        """Order in which an idle driver visits non-empty queues.

        Default: channel-id order (no priorities).
        """
        return sorted(queues, key=lambda q: q.channel_id)

    def note_dispatch(
        self, channel_id: int, items: Sequence[tuple[TrafficClass, int]]
    ) -> None:
        """Feedback hook: the engine dispatched one packet.

        ``items`` lists ``(traffic_class, bytes)`` per included entry.
        Policies that account service (weighted fairness) or adapt the
        assignment at run time (paper §2) override this; the default is
        a no-op.
        """

    def bind(self, engine) -> None:
        """Give the policy a back-reference to its engine.

        Called once by the engine after ``setup``.  Policies that
        rewrite the assignment at run time use it to migrate pending
        entries (``engine.reassign_class``); the default keeps nothing.
        """

    def note_rail_event(self, engine, nic, up: bool) -> None:
        """Feedback hook: a rail went down (``up=False``) or came back.

        Policies that dedicate channels to rails or classes override
        this to rebalance the assignment (multirail failover, paper §2's
        dynamic resource re-assignment); the default is a no-op — with
        pooled service the surviving NICs drain every queue anyway.
        """


class PooledChannels(ChannelPolicy):
    """Class-based pooling: one channel per traffic class, priority service.

    With ``by_class=False`` every entry shares a single channel — pure
    multiplexing with no class separation (useful as an ablation).
    Service order follows ``priority`` (default: control first, bulk
    last, so small signalling traffic never waits behind bulk backlog).
    """

    name = "pooled"
    stable_service_order = True

    #: Default service priority, most urgent first.
    DEFAULT_PRIORITY = (
        TrafficClass.CONTROL,
        TrafficClass.PUTGET,
        TrafficClass.DEFAULT,
        TrafficClass.BULK,
    )

    def __init__(
        self,
        by_class: bool = True,
        priority: Sequence[TrafficClass] = DEFAULT_PRIORITY,
    ) -> None:
        if sorted(priority, key=lambda c: c.value) != sorted(
            TrafficClass, key=lambda c: c.value
        ):
            raise ConfigurationError(
                "priority must list every traffic class exactly once"
            )
        self.by_class = by_class
        self.priority = tuple(priority)
        self._pool: ChannelPool | None = None
        self._rank_by_channel: dict[int, int] = {}

    def setup(self, pool: ChannelPool, max_channels: int) -> None:
        self._pool = pool
        if not self.by_class or max_channels < len(TrafficClass):
            shared = pool.create("shared")
            for traffic_class in TrafficClass:
                pool.assign(traffic_class, shared.channel_id)
            self._rank_by_channel = {shared.channel_id: 0}
            return
        for rank, traffic_class in enumerate(self.priority):
            channel = pool.create(f"class:{traffic_class.value}")
            pool.assign(traffic_class, channel.channel_id)
            self._rank_by_channel[channel.channel_id] = rank

    def channel_for_entry(self, entry: SubmitEntry) -> int:
        if self._pool is None:
            raise ConfigurationError("PooledChannels.setup() not called")
        return self._pool.channel_for(entry.traffic_class).channel_id

    def service_order(self, queues: Sequence[ChannelQueue]) -> list[ChannelQueue]:
        return sorted(
            queues,
            key=lambda q: (self._rank_by_channel.get(q.channel_id, len(TrafficClass)), q.channel_id),
        )


class WeightedChannels(PooledChannels):
    """Weighted fair service over class channels.

    Instead of strict priorities, channels are served in order of
    *weighted bytes served*: the channel whose ``served_bytes / weight``
    is lowest goes first, so a high-weight class gets a proportionally
    larger share of NIC time without starving anyone.  Weights default
    to 1; control traffic usually deserves a large weight relative to
    its tiny byte volume.
    """

    name = "weighted"

    #: Default weights: control bytes count 1/64th, bulk bytes full.
    DEFAULT_WEIGHTS = {
        TrafficClass.CONTROL: 64.0,
        TrafficClass.PUTGET: 4.0,
        TrafficClass.DEFAULT: 2.0,
        TrafficClass.BULK: 1.0,
    }

    def __init__(self, weights: dict[TrafficClass, float] | None = None) -> None:
        super().__init__(by_class=True)
        self.weights = dict(self.DEFAULT_WEIGHTS)
        if weights:
            for traffic_class, weight in weights.items():
                if weight <= 0:
                    raise ConfigurationError(
                        f"weight for {traffic_class} must be > 0, got {weight}"
                    )
                self.weights[traffic_class] = weight
        self._served_bytes: dict[int, float] = {}
        self._weight_by_channel: dict[int, float] = {}

    def setup(self, pool: ChannelPool, max_channels: int) -> None:
        super().setup(pool, max_channels)
        for traffic_class in TrafficClass:
            channel = pool.channel_for(traffic_class)
            self._weight_by_channel[channel.channel_id] = self.weights[traffic_class]
            self._served_bytes.setdefault(channel.channel_id, 0.0)

    def note_dispatch(self, channel_id, items) -> None:
        # Account at least one byte per packet so zero-byte control
        # packets still consume a share of service.
        total = max(sum(size for _cls, size in items), 1)
        self._served_bytes[channel_id] = self._served_bytes.get(channel_id, 0.0) + total

    def service_order(self, queues: Sequence[ChannelQueue]) -> list[ChannelQueue]:
        def key(queue: ChannelQueue):
            weight = self._weight_by_channel.get(queue.channel_id, 1.0)
            return (self._served_bytes.get(queue.channel_id, 0.0) / weight, queue.channel_id)

        return sorted(queues, key=key)


class OneToOneChannels(ChannelPolicy):
    """The fallback policy of §2: each flow gets its own channel.

    Channels are allocated on demand up to the hardware's
    ``max_channels``; beyond that, flows wrap around (hashing) — exactly
    the degradation the paper's pooling argument predicts.  Service is
    round-robin with no class awareness.
    """

    name = "one-to-one"

    def __init__(self) -> None:
        self._pool: ChannelPool | None = None
        self._max_channels = 0
        self._flow_to_channel: dict[int, int] = {}
        self._rr_offset = 0

    def setup(self, pool: ChannelPool, max_channels: int) -> None:
        self._pool = pool
        self._max_channels = max_channels

    def channel_for_entry(self, entry: SubmitEntry) -> int:
        if self._pool is None:
            raise ConfigurationError("OneToOneChannels.setup() not called")
        if entry.flow is None:
            # Engine-generated control traffic has no flow; it shares the
            # first channel (one-to-one has no class concept to help it).
            if len(self._pool) == 0:
                self._pool.create("flowchan0")
            return self._pool.channels[0].channel_id
        flow_id = entry.flow.flow_id
        if flow_id not in self._flow_to_channel:
            if len(self._pool) < self._max_channels:
                channel = self._pool.create(f"flowchan{len(self._pool)}")
                self._flow_to_channel[flow_id] = channel.channel_id
            else:
                channels = self._pool.channels
                self._flow_to_channel[flow_id] = channels[
                    flow_id % len(channels)
                ].channel_id
        return self._flow_to_channel[flow_id]

    def service_order(self, queues: Sequence[ChannelQueue]) -> list[ChannelQueue]:
        ordered = sorted(queues, key=lambda q: q.channel_id)
        if not ordered:
            return []
        # Rotate so no channel is structurally favoured.
        self._rr_offset = (self._rr_offset + 1) % len(ordered)
        return ordered[self._rr_offset :] + ordered[: self._rr_offset]


class TailRailOrder:
    """The p99-budget rail order: pumps visit rails that keep their tail.

    Every NIC keeps the service times of its last
    :data:`~repro.network.nic.SERVICE_WINDOW` sends
    (:attr:`~repro.network.nic.NIC.service_us`, send to idle), so the
    order needs no tracing and a run decides the same traced or not.
    The p99 is exact (:func:`repro.util.stats.percentiles`).  Buckets:

    1. rails **within** ``p99_budget_us`` (with at least ``min_samples``
       spans), best p99 first;
    2. rails with fewer spans (**unmeasured**), in their listed
       positions — never punish a rail for being unmeasured;
    3. rails **over** budget, least-bad p99 first.

    The order is re-read from the windows every ``refresh_every`` pumps
    and cached in between.  It counts the pumps it orders, so an engine
    with one keeps no standing Hold.  Its number:
    ``tests/core/test_rail_order.py::TestSkewedRailRun``, steady-state
    p99 105.49 → 21.36 µs with a slow rail listed first.
    """

    def __init__(
        self,
        p99_budget_us: float = 1000.0,
        min_samples: int = 32,
        refresh_every: int = 32,
    ) -> None:
        if not p99_budget_us > 0:
            raise ConfigurationError(f"p99_budget_us must be > 0, got {p99_budget_us!r}")
        if not 1 <= min_samples <= SERVICE_WINDOW:
            raise ConfigurationError(
                f"min_samples must be in [1, {SERVICE_WINDOW}] (the NIC service "
                f"window), got {min_samples!r}"
            )
        if refresh_every < 1:
            raise ConfigurationError(f"refresh_every must be >= 1, got {refresh_every!r}")
        self.p99_budget_us = p99_budget_us
        self.min_samples = min_samples
        self.refresh_every = refresh_every
        self.refreshes = 0
        #: Most recent ordering decision, for reports: nic → bucket.
        self.last_buckets: dict[str, str] = {}
        self._calls = 0
        self._cached: list["Driver"] | None = None

    def order(self, drivers: Sequence["Driver"]) -> list["Driver"]:
        """The driver service order for one pump."""
        if self._cached is None or self._calls >= self.refresh_every:
            self._cached = self._compute(drivers)
            self._calls = 0
            self.refreshes += 1
        self._calls += 1
        return self._cached

    def _compute(self, drivers: Sequence["Driver"]) -> list["Driver"]:
        within: list[tuple[float, int, "Driver"]] = []
        unknown: list["Driver"] = []
        over: list[tuple[float, int, "Driver"]] = []
        buckets: dict[str, str] = {}
        for index, driver in enumerate(drivers):
            nic = driver.nic.name
            window = driver.nic.service_us
            if len(window) < self.min_samples:
                unknown.append(driver)
                buckets[nic] = "unmeasured"
                continue
            (p99_us,) = percentiles(window, (99.0,))
            if p99_us <= self.p99_budget_us:
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
        """JSON-able state (``repro run`` report)."""
        return {
            "p99_budget_us": self.p99_budget_us,
            "refreshes": self.refreshes,
            "buckets": dict(self.last_buckets),
            "order": (
                [d.nic.name for d in self._cached]
                if self._cached is not None
                else None
            ),
        }
