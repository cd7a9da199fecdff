"""Adaptive channel assignment (paper §2).

"Finally, the scheduler may also choose to dynamically change the
assignment of networking resources to traffic classes, thus selecting
different policies, as the needs of the application evolve during the
execution."

:class:`AdaptiveChannels` implements that: it starts with a *single*
shared channel (multiplexing units are scarce hardware resources — MX
exposes 8), observes per-class traffic through the ``note_dispatch``
feedback hook, and **promotes** a traffic class to a dedicated channel
once its byte volume shows it interferes with the others.  Promotion
rewrites the class → channel assignment in place; entries already
queued stay where they are, new entries follow the new mapping.  A
class whose traffic dries up is **demoted** back to the shared channel,
releasing its multiplexing unit.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.channels import ChannelPolicy
from repro.core.waiting import ChannelQueue
from repro.madeleine.submit import SubmitEntry
from repro.network.virtual import ChannelPool, TrafficClass
from repro.util.errors import ConfigurationError
from repro.util.units import KiB

__all__ = ["AdaptiveChannels"]


class AdaptiveChannels(ChannelPolicy):
    """Single shared channel that grows dedicated class channels on demand.

    Parameters
    ----------
    promote_bytes:
        A class is promoted once it has moved this many bytes since the
        last adaptation window.
    window_dispatches:
        Adaptation is evaluated every this-many dispatched packets.
    demote_after_windows:
        A promoted class is demoted after this many consecutive windows
        with zero traffic.
    """

    name = "adaptive"
    stable_service_order = True

    #: Service priority among promoted channels (control first).
    PRIORITY = (
        TrafficClass.CONTROL,
        TrafficClass.PUTGET,
        TrafficClass.DEFAULT,
        TrafficClass.BULK,
    )

    def __init__(
        self,
        promote_bytes: int = 64 * KiB,
        window_dispatches: int = 32,
        demote_after_windows: int = 4,
    ) -> None:
        if promote_bytes < 1 or window_dispatches < 1 or demote_after_windows < 1:
            raise ConfigurationError("adaptive thresholds must be >= 1")
        self.promote_bytes = promote_bytes
        self.window_dispatches = window_dispatches
        self.demote_after_windows = demote_after_windows
        self._pool: ChannelPool | None = None
        self._max_channels = 1
        self._shared_id: int | None = None
        self._dedicated: dict[TrafficClass, int] = {}
        self._rank: dict[int, int] = {}  # channel id → service rank
        self._free_channels: list[int] = []
        self._window_bytes: dict[TrafficClass, int] = {}
        self._idle_windows: dict[TrafficClass, int] = {}
        self._dispatches_in_window = 0
        self._engine = None
        #: (time-ordered) log of adaptation decisions, for tests/benches.
        self.adaptations: list[tuple[str, TrafficClass]] = []

    def bind(self, engine) -> None:
        self._engine = engine

    # ------------------------------------------------------------------
    # ChannelPolicy interface
    # ------------------------------------------------------------------
    def setup(self, pool: ChannelPool, max_channels: int) -> None:
        self._pool = pool
        self._max_channels = max_channels
        shared = pool.create("shared")
        self._shared_id = shared.channel_id
        for traffic_class in TrafficClass:
            pool.assign(traffic_class, shared.channel_id)
        self._rerank()

    def channel_for_entry(self, entry: SubmitEntry) -> int:
        if self._pool is None:
            raise ConfigurationError("AdaptiveChannels.setup() not called")
        return self._pool.channel_for(entry.traffic_class).channel_id

    #: ``service_order`` rank of the shared channel: strictly after the
    #: dedicated CONTROL/PUTGET channels (ranks 0, 1) and strictly
    #: before dedicated DEFAULT/BULK (ranks 3, 4) — mixed traffic must
    #: not overtake latency-critical classes, but beats pure background
    #: classes.  Dedicated ranks leave this slot free (see below), so no
    #: dedicated channel can ever tie with the shared one.
    _SHARED_RANK = 2

    def _rerank(self) -> None:
        """Rebuild the channel → rank table (the assignment changed)."""
        rank: dict[int, int] = {}
        for position, traffic_class in enumerate(self.PRIORITY):
            channel_id = self._dedicated.get(traffic_class)
            if channel_id is not None:
                # Skip over _SHARED_RANK so a promoted DEFAULT channel
                # (PRIORITY position 2) cannot collide with the shared
                # channel's rank — a tie would fall through to
                # channel-id order and service shared (mixed) traffic
                # ahead of the dedicated class it lost to.
                rank[channel_id] = (
                    position if position < self._SHARED_RANK else position + 1
                )
        if self._shared_id is not None:
            rank.setdefault(self._shared_id, self._SHARED_RANK)
        self._rank = rank

    def service_order(self, queues: Sequence[ChannelQueue]) -> list[ChannelQueue]:
        if len(queues) < 2:
            return list(queues)
        rank = self._rank
        unknown = len(self.PRIORITY) + 1
        return sorted(
            queues, key=lambda q: (rank.get(q.channel_id, unknown), q.channel_id)
        )

    def note_dispatch(self, channel_id, items) -> None:
        for traffic_class, size in items:
            self._window_bytes[traffic_class] = (
                self._window_bytes.get(traffic_class, 0) + size
            )
        self._dispatches_in_window += 1
        if self._dispatches_in_window >= self.window_dispatches:
            self._adapt()

    def note_rail_event(self, engine, nic, up: bool) -> None:
        """Collapse onto the shared channel when a rail dies.

        Losing a NIC shrinks the serviceable multiplexing capacity;
        folding every dedicated class back into the shared channel lets
        the surviving rails drain one queue under class priorities
        instead of starving per-class channels the dead rail may have
        been serving (under static rail binding).  Classes re-earn their
        dedicated channels through the normal promotion path once
        traffic proves they still interfere.
        """
        if up:
            return
        for traffic_class in list(self._dedicated):
            self._demote(traffic_class)

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------
    def _adapt(self) -> None:
        assert self._pool is not None
        window = self._window_bytes
        self._window_bytes = {}
        self._dispatches_in_window = 0

        for traffic_class in TrafficClass:
            bytes_moved = window.get(traffic_class, 0)
            if traffic_class in self._dedicated:
                if bytes_moved == 0:
                    idle = self._idle_windows.get(traffic_class, 0) + 1
                    self._idle_windows[traffic_class] = idle
                    if idle >= self.demote_after_windows:
                        self._demote(traffic_class)
                else:
                    self._idle_windows[traffic_class] = 0
            elif bytes_moved >= self.promote_bytes:
                self._promote(traffic_class)

    def _promote(self, traffic_class: TrafficClass) -> None:
        assert self._pool is not None
        if len(self._pool) >= self._max_channels and not self._free_channels:
            return  # out of multiplexing units: keep sharing
        if self._free_channels:
            channel_id = self._free_channels.pop()
        else:
            channel_id = self._pool.create(f"dyn:{traffic_class.value}").channel_id
        self._pool.assign(traffic_class, channel_id)
        self._dedicated[traffic_class] = channel_id
        self._rerank()
        self._idle_windows[traffic_class] = 0
        self.adaptations.append(("promote", traffic_class))
        if self._engine is not None:
            # Pending entries of the class follow the new assignment.
            self._engine.reassign_class(traffic_class, channel_id)

    def _demote(self, traffic_class: TrafficClass) -> None:
        assert self._pool is not None and self._shared_id is not None
        channel_id = self._dedicated.pop(traffic_class)
        self._rerank()
        self._pool.assign(traffic_class, self._shared_id)
        self._free_channels.append(channel_id)
        self._idle_windows.pop(traffic_class, None)
        self.adaptations.append(("demote", traffic_class))
        if self._engine is not None:
            self._engine.reassign_class(traffic_class, self._shared_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dedicated_classes(self) -> frozenset[TrafficClass]:
        """Classes currently owning a dedicated channel."""
        return frozenset(self._dedicated)

    @property
    def channels_in_use(self) -> int:
        """Channels carrying an assignment right now (shared + dedicated)."""
        return 1 + len(self._dedicated)
