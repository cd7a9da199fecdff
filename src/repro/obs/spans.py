"""Message span chains: the records the trace fold builds.

A traced message leaves a trail across layers: ``collect.enqueue`` when
the engine accepts it, ``engine.dispatch`` when fragments are packed
into a wire packet, ``nic.send`` when that packet starts occupying a
rail, ``rel.retransmit``/``reorder.enter``/``reorder.release`` when the
reliability layer intervenes, ``rx.deliver`` on arrival and
``message.complete`` when the reassembler hands the payload up.
:func:`repro.obs.analyze.analyze_events` stitches those events into one
:class:`MessageChain` per message: the packet :class:`Leg`\\ s that
carried its bytes, plus the sender-side context (rendezvous handshakes)
that explains time spent *before* the wire.  The interval helpers below
partition a chain's queue span for :mod:`repro.obs.causal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Leg",
    "MessageChain",
    "merge_intervals",
    "interval_overlap",
    "subtract_intervals",
]


@dataclass(slots=True, eq=False)
class Leg:
    """One wire packet's journey from dispatch to delivery."""

    key: str  #: ``"{sender}#{packet_id}"`` — the wire correlation id.
    node: str  #: sender node.
    packet_id: int | None = None
    dst: str | None = None
    nic: str | None = None
    packet_kind: str | None = None
    bytes: int = 0
    dispatch_t: float | None = None
    send_t: float | None = None  #: first nic.send
    #: The latest sim ``nic.send`` no delivery has closed yet: the start
    #: of the leg's next wire crossing.
    last_send_t: float | None = None
    occupancy: float | None = None
    recv_t: float | None = None  #: live.recv (wire arrival, live only)
    reorder_enter_t: float | None = None
    reorder_release_t: float | None = None
    deliver_t: float | None = None
    retransmits: list[float] = field(default_factory=list)
    drops: int = 0
    #: ``(message_id, fragment index, length)`` slices this packet carries.
    slices: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def arrival_t(self) -> float | None:
        """Physical wire arrival: reorder entry, live.recv, or delivery."""
        if self.reorder_enter_t is not None:
            return self.reorder_enter_t
        if self.recv_t is not None:
            return self.recv_t
        return self.deliver_t

    @property
    def done_t(self) -> float | None:
        """When this leg's payload became available to the reassembler."""
        if self.deliver_t is not None:
            return self.deliver_t
        if self.reorder_release_t is not None:
            return self.reorder_release_t
        return self.recv_t


@dataclass(slots=True)
class MessageChain:
    """Everything one traced message did, submit to completion."""

    src: str
    message_id: int
    flow: str | None = None
    dst: str | None = None
    bytes: int = 0
    fragments: int = 0
    submit_t: float = 0.0
    complete_t: float | None = None
    delivered_bytes: int = 0
    last_deliver_t: float | None = None
    legs: list[Leg] = field(default_factory=list)
    #: Rendezvous handshake windows ``(park_t, ready_t | None)``.
    rdv_windows: list[tuple[float, float | None]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.src}#m{self.message_id}"

    @property
    def covered(self) -> bool:
        """All payload bytes have a delivery timestamp."""
        return self.bytes > 0 and self.delivered_bytes >= self.bytes


# ----------------------------------------------------------------------
# interval helpers (blame partitioning of the queue span)
# ----------------------------------------------------------------------
def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals, sorted and disjoint."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def interval_overlap(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    """Clip intervals to ``[lo, hi]`` (drops empty results)."""
    return [
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    ]


def subtract_intervals(
    intervals: list[tuple[float, float]], holes: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """``intervals`` minus ``holes`` (both disjoint and sorted)."""
    out: list[tuple[float, float]] = []
    for start, end in intervals:
        cursor = start
        for h_start, h_end in holes:
            if h_end <= cursor or h_start >= end:
                continue
            if h_start > cursor:
                out.append((cursor, h_start))
            cursor = max(cursor, h_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def total_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Summed length of the intervals (assumed disjoint)."""
    return sum(end - start for start, end in intervals)
