"""Per-message lifecycle span reconstruction from trace events.

A traced message leaves a trail across layers: ``collect.enqueue`` when
the engine accepts it, ``engine.dispatch`` when fragments are packed
into a wire packet, ``nic.send`` when that packet starts occupying a
rail, ``rel.retransmit``/``reorder.enter``/``reorder.release`` when the
reliability layer intervenes, ``rx.deliver`` on arrival and
``message.complete`` when the reassembler hands the payload up.  This
module stitches those events back into one :class:`MessageChain` per
message: the set of packet :class:`Leg`\\ s that carried its bytes, plus
the sender-side context (hold-timer windows, rendezvous handshakes)
needed to explain time spent *before* the wire.

Correlation keys
----------------
* A packet leg is keyed ``"{sender}#{packet_id}"`` — exactly the wire
  correlation id the live plane stamps into frames
  (:func:`repro.network.wire.correlation_id`), so sim traces (one
  process, shared packet ids) and merged live traces (corr echoed in
  ``live.recv``/``rx.deliver``) resolve identically.
* A message chain is keyed ``(sender, message_id)``; a live receiver's
  mirror message carries the sender's id, so its ``message.complete``
  joins directly.  Delivery is joined through the leg:
  ``engine.dispatch`` records which (message, fragment index, length)
  slices each packet carries, and a chain is covered when its delivered
  bytes reach its size.

The collector is single-pass and bounded (FIFO eviction beyond
``_PENDING_CAP`` in-flight chains/legs).  It runs once over a finished
trace — a run's own sink, a trace file, or the coordinator's merged
live stream — because only there is every chain whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.util.tracing import KindSink, TraceEvent

__all__ = [
    "Leg",
    "MessageChain",
    "SpanCollector",
    "merge_intervals",
    "interval_overlap",
    "subtract_intervals",
]

#: Bound on in-flight (not yet completed) chains and legs; beyond it the
#: oldest is evicted FIFO so a runaway trace cannot grow memory.
_PENDING_CAP = 65536


@dataclass(slots=True)
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
    send_t: float | None = None
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


# ----------------------------------------------------------------------
# the collector
# ----------------------------------------------------------------------
class SpanCollector(KindSink):
    """Single-pass, bounded reconstruction of message span chains.

    Feed it a trace's events (any order within a source's own stream;
    the merged live stream qualifies) via :meth:`ingest_all`.  Completed
    chains accumulate in :attr:`completed`; :meth:`finish` closes out
    chains whose delivery is fully covered but whose
    ``message.complete`` never arrived.
    """

    __slots__ = (
        "chains",
        "legs",
        "completed",
        "hold_windows",
        "trace_seen",
        "trace_dropped",
        "evicted_chains",
        "_open_hold",
    )

    def __init__(self) -> None:
        self.chains: dict[tuple[str, int], MessageChain] = {}
        self.legs: dict[str, Leg] = {}
        self.completed: list[MessageChain] = []
        #: node -> (arm_t, fire_t | None) hold-timer windows.  One timer
        #: per node: start-sorted, disjoint, only the last can be open.
        self.hold_windows: dict[str, list[tuple[float, float | None]]] = {}
        #: From an ``obs.truncated`` marker, when the trace carried one.
        self.trace_seen: int | None = None
        self.trace_dropped = 0
        self.evicted_chains = 0
        self._open_hold: dict[str, int] = {}  # node -> index into windows
        self.handlers = {k: h.__get__(self) for k, h in self._HANDLERS.items()}

    # -- sink protocol -------------------------------------------------
    ingest = KindSink.__call__

    def ingest_all(self, events: Iterable[TraceEvent]) -> None:
        """Feed an entire event stream in order (only the kinds in
        :attr:`handlers` cost more than one lookup)."""
        handlers = self.handlers
        for event in events:
            handler = handlers.get(event.kind)
            if handler is not None:
                handler(event)

    # -- event handlers ------------------------------------------------
    @staticmethod
    def _source_name(event: TraceEvent) -> str:
        return event.source.partition(":")[2]

    def _on_enqueue(self, event: TraceEvent) -> None:
        node = self._source_name(event)
        detail = event.detail
        chain = MessageChain(
            src=node,
            message_id=int(detail["message"]),
            flow=detail.get("flow"),
            dst=detail.get("dst"),
            bytes=int(detail.get("bytes", 0)),
            fragments=int(detail.get("fragments", 0)),
            submit_t=event.time,
        )
        key = (node, chain.message_id)
        if len(self.chains) >= _PENDING_CAP:
            self.chains.pop(next(iter(self.chains)))
            self.evicted_chains += 1
        self.chains[key] = chain

    def _on_hold_arm(self, event: TraceEvent) -> None:
        node = self._source_name(event)
        if node in self._open_hold:
            return
        windows = self.hold_windows.setdefault(node, [])
        self._open_hold[node] = len(windows)
        windows.append((event.time, None))

    def _on_hold_fire(self, event: TraceEvent) -> None:
        node = self._source_name(event)
        index = self._open_hold.pop(node, None)
        if index is not None:
            arm_t, _ = self.hold_windows[node][index]
            self.hold_windows[node][index] = (arm_t, event.time)

    def _chain_for_message(self, node: str, detail: dict) -> MessageChain | None:
        message = detail.get("message")
        if message is None:
            return None
        return self.chains.get((node, int(message)))

    def _on_rdv_park(self, event: TraceEvent) -> None:
        chain = self._chain_for_message(self._source_name(event), event.detail)
        if chain is not None:
            chain.rdv_windows.append((event.time, None))

    def _on_rdv_close(self, event: TraceEvent) -> None:
        chain = self._chain_for_message(self._source_name(event), event.detail)
        if chain is not None and chain.rdv_windows:
            for i in range(len(chain.rdv_windows) - 1, -1, -1):
                start, end = chain.rdv_windows[i]
                if end is None:
                    chain.rdv_windows[i] = (start, event.time)
                    break

    def _leg(self, key: str, node: str) -> Leg:
        leg = self.legs.get(key)
        if leg is None:
            if len(self.legs) >= _PENDING_CAP:
                self.legs.pop(next(iter(self.legs)))
            leg = Leg(key=key, node=node)
            self.legs[key] = leg
        return leg

    def _on_dispatch(self, event: TraceEvent) -> None:
        detail = event.detail
        packet = detail.get("packet")
        if packet is None:  # trace predates packet correlation
            return
        node = self._source_name(event)
        leg = self._leg(f"{node}#{packet}", node)
        leg.packet_id = int(packet)
        leg.dispatch_t = event.time
        leg.dst = detail.get("dst")
        leg.packet_kind = detail.get("packet_kind")
        leg.bytes = int(detail.get("bytes", 0))
        for mid, fid, length in detail.get("messages", ()):
            leg.slices.append((int(mid), int(fid), int(length)))
            chain = self.chains.get((node, int(mid)))
            if chain is not None and leg not in chain.legs:
                chain.legs.append(leg)

    def _on_nic_send(self, event: TraceEvent) -> None:
        detail = event.detail
        nic = self._source_name(event)
        node = nic.split(".", 1)[0]
        key = detail.get("corr") or f"{node}#{detail['packet']}"
        leg = self._leg(key, node)
        if leg.send_t is None:
            leg.send_t = event.time
        leg.nic = nic
        occupancy = detail.get("occupancy")
        if occupancy is not None:
            leg.occupancy = float(occupancy)

    def _rel_leg(self, event: TraceEvent) -> Leg:
        nic = self._source_name(event)
        node = nic.split(".", 1)[0]
        return self._leg(f"{node}#{event.detail['packet']}", node)

    def _on_retransmit(self, event: TraceEvent) -> None:
        self._rel_leg(event).retransmits.append(event.time)

    def _on_drop(self, event: TraceEvent) -> None:
        self._rel_leg(event).drops += 1

    def _on_reorder(self, event: TraceEvent) -> None:
        detail = event.detail
        src = detail.get("src")
        if src is None:
            return
        leg = self._leg(f"{src}#{detail['packet']}", str(src))
        if event.kind == "reorder.enter":
            leg.reorder_enter_t = event.time
        else:
            leg.reorder_release_t = event.time

    def _on_live_recv(self, event: TraceEvent) -> None:
        detail = event.detail
        corr = detail.get("corr")
        if corr is None:
            return
        src = detail.get("src", str(corr).partition("#")[0])
        leg = self._leg(str(corr), str(src))
        if leg.recv_t is None:
            leg.recv_t = event.time

    def _on_deliver(self, event: TraceEvent) -> None:
        detail = event.detail
        key = detail.get("corr")
        if key is None:
            src = detail.get("src")
            if src is None or "packet" not in detail:
                return
            key = f"{src}#{detail['packet']}"
        leg = self.legs.get(str(key))
        if leg is None or leg.deliver_t is not None:
            return
        leg.deliver_t = event.time
        for mid, _fid, length in leg.slices:
            chain = self.chains.get((leg.node, mid))
            if chain is None or chain.complete_t is not None:
                continue
            chain.delivered_bytes += length
            chain.last_deliver_t = event.time

    def _on_complete(self, event: TraceEvent) -> None:
        detail = event.detail
        chain = self.chains.get((detail.get("src"), int(detail["message"])))
        if chain is None:
            return
        chain.complete_t = event.time
        self._finalize(chain)

    def _on_truncated(self, event: TraceEvent) -> None:
        detail = event.detail
        self.trace_dropped += int(detail.get("dropped", 0))
        seen = detail.get("seen")
        if seen is not None:
            self.trace_seen = (self.trace_seen or 0) + int(seen)

    def _finalize(self, chain: MessageChain) -> None:
        self.chains.pop((chain.src, chain.message_id), None)
        self.completed.append(chain)

    _HANDLERS = {
        "collect.enqueue": _on_enqueue,
        "hold.arm": _on_hold_arm,
        "hold.fire": _on_hold_fire,
        "rdv.park": _on_rdv_park,
        "rdv.ready": _on_rdv_close,
        "rdv.timeout": _on_rdv_close,
        "engine.dispatch": _on_dispatch,
        "nic.send": _on_nic_send,
        "rel.retransmit": _on_retransmit,
        "rel.drop": _on_drop,
        "reorder.enter": _on_reorder,
        "reorder.release": _on_reorder,
        "live.recv": _on_live_recv,
        "rx.deliver": _on_deliver,
        "message.complete": _on_complete,
        "obs.truncated": _on_truncated,
    }

    # -- completion ----------------------------------------------------
    def finish(self) -> None:
        """Close out chains delivered in full but missing a completion
        event (a truncated trace); incomplete chains stay in
        :attr:`chains`."""
        for key in [k for k, c in self.chains.items() if c.covered]:
            chain = self.chains[key]
            chain.complete_t = chain.last_deliver_t
            self._finalize(chain)

    @property
    def incomplete(self) -> int:
        """Chains still missing delivery evidence."""
        return len(self.chains)
