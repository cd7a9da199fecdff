"""NIC virtualization: channels (multiplexing units) and traffic classes.

The paper's §2 argument: hardware/software NIC virtualization gives you
transparent multiplexing units; instead of mapping communication flows
one-to-one onto them, pool them under a software scheduler that can
assign *traffic classes* to channels ("different channel to large
synchronous sends, put/get transfers and control/signalling messages"),
rebalance dynamically, and fall back to one-to-one mapping as a mere
policy.

A :class:`Channel` is a named multiplexing unit; packets carry its id so
the receiver can demultiplex ("help the receiver in sorting out the
incoming packets").  A :class:`ChannelPool` owns a node's channels and
the class → channel assignment, which scheduling policies may rewrite at
run time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.errors import ConfigurationError

__all__ = ["TrafficClass", "Channel", "ChannelPool"]


class TrafficClass(enum.Enum):
    """Coarse traffic categories from paper §2."""

    BULK = "bulk"  #: large synchronous sends
    PUTGET = "putget"  #: one-sided put/get transfers
    CONTROL = "control"  #: control / signalling messages
    DEFAULT = "default"  #: everything else


@dataclass(frozen=True, slots=True)
class Channel:
    """One virtualized multiplexing unit over the NIC pool."""

    channel_id: int
    name: str

    def __post_init__(self) -> None:
        if self.channel_id < 0:
            raise ConfigurationError(f"negative channel id {self.channel_id}")


class ChannelPool:
    """A node's channels plus the traffic-class assignment.

    The default assignment maps every class to channel 0 (pure
    multiplexing).  Policies such as
    :class:`~repro.core.adaptive.AdaptiveChannels`
    install richer assignments and may change them while running — the
    "dynamically change the assignment of networking resources to traffic
    classes" capability of §2.
    """

    def __init__(self) -> None:
        self._channels: dict[int, Channel] = {}
        self._assignment: dict[TrafficClass, int] = {}
        self._next_id = 0

    def create(self, name: str) -> Channel:
        """Allocate a new channel with a unique id."""
        channel = Channel(self._next_id, name)
        self._channels[channel.channel_id] = channel
        self._next_id += 1
        return channel

    def get(self, channel_id: int) -> Channel:
        """Look up a channel by id."""
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ConfigurationError(f"unknown channel id {channel_id}") from None

    @property
    def channels(self) -> list[Channel]:
        """All channels in creation order."""
        return [self._channels[i] for i in sorted(self._channels)]

    def __len__(self) -> int:
        return len(self._channels)

    def __contains__(self, channel_id: int) -> bool:
        return channel_id in self._channels

    # ------------------------------------------------------------------
    # traffic-class assignment
    # ------------------------------------------------------------------
    def assign(self, traffic_class: TrafficClass, channel_id: int) -> None:
        """Route a traffic class to a channel (rewritable at run time)."""
        if channel_id not in self._channels:
            raise ConfigurationError(
                f"cannot assign {traffic_class} to unknown channel {channel_id}"
            )
        self._assignment[traffic_class] = channel_id

    def channel_for(self, traffic_class: TrafficClass) -> Channel:
        """Resolve a traffic class to its channel.

        Falls back to the DEFAULT assignment, then to channel 0.
        """
        channel_id = self._assignment.get(traffic_class)
        if channel_id is None:
            channel_id = self._assignment.get(TrafficClass.DEFAULT)
        if channel_id is not None:
            return self._channels[channel_id]
        if not self._channels:
            raise ConfigurationError("channel pool is empty")
        return self._channels[min(self._channels)]

    @property
    def assignment(self) -> dict[TrafficClass, int]:
        """A copy of the current class → channel mapping."""
        return dict(self._assignment)
