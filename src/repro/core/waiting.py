"""Waiting packet lists — the collect layer's output (Figure 1).

Each channel (multiplexing unit) owns one :class:`ChannelQueue` holding
submit entries in arrival order.  While a NIC is busy the queues simply
grow — that accumulation *is* the lookahead pool the paper builds its
optimization opportunities from (§3: "While the NIC is busy sending a
packet, the scheduler simply accumulates a backlog of packets").

Queues never reorder anything themselves; strategies read an ordered
snapshot and pick.  Entries leave a queue when fully dispatched, or are
*parked* out of it while a rendezvous handshake is in flight.

Complexity
----------
The optimizer runs once per NIC-idle transition and must stay
O(lookahead window) per decision regardless of backlog depth, so every
aggregate this module exposes is *incrementally maintained* rather than
recomputed:

* ``len(queue)``, ``queue.pending_bytes``, ``WaitingLists.total_pending``
  and ``total_pending_bytes`` are O(1) counters, updated by the entries
  themselves: :class:`~repro.madeleine.submit.SubmitEntry` notifies its
  owning queue on every state transition and byte consumption;
* :meth:`ChannelQueue.remove` is O(1): entries live in a lazily
  compacted slot list (entry → slot index), removal blanks the
  slot, and compaction runs only when dead slots outnumber live ones;
* the decision path's one memo is the flat-array mirror of the window
  (:meth:`ChannelQueue.pending_arrays`), keyed on the queue's **version
  stamp**, which every mutation bumps — a scheduling decision that
  evaluates dozens of candidates over an unchanged queue pays for one
  walk, not one per candidate (+1,290 / +2,277 ``py_ops_per_msg`` on
  ``sim_mixed`` / ``sim_storm`` without it).

The brute-force definitions these counters must agree with are kept in
:meth:`ChannelQueue.recount` (exercised by the hypothesis property
tests).
"""

from __future__ import annotations

from typing import Iterator

from repro.madeleine.submit import (
    PENDING_ENTRY_STATES,
    EntryState,
    SubmitEntry,
)
from repro.util.errors import InternalError

__all__ = ["ChannelQueue", "WaitingLists"]

# recount()'s oracle; the hot paths compare by identity.
_PENDING_STATES = PENDING_ENTRY_STATES
_WAITING = EntryState.WAITING
_RDV_READY = EntryState.RDV_READY
_SENT = EntryState.SENT

#: Dead-slot count below which compaction is never attempted (tiny
#: queues are cheaper to leave fragmented than to rebuild).
_COMPACT_MIN_GARBAGE = 64


class ChannelQueue:
    """Arrival-ordered pending entries of one channel.

    ``lists`` is the owning :class:`WaitingLists`, whose cross-channel
    totals this queue keeps in sync (``None`` for standalone queues in
    tests and micro-benchmarks).
    """

    __slots__ = (
        "channel_id",
        "_slots",
        "_head",
        "_index",
        "_garbage",
        "_pending_count",
        "_pending_bytes",
        "_version",
        "_lists",
        "_arrays_version",
        "_arrays_window",
        "_arrays",
    )

    def __init__(self, channel_id: int, *, lists: "WaitingLists | None" = None) -> None:
        self.channel_id = channel_id
        #: Arrival-ordered slots; ``None`` marks a lazily removed entry.
        self._slots: list[SubmitEntry | None] = []
        self._head = 0  # slots before this index are all dead
        self._index: dict[SubmitEntry, int] = {}  # entry -> slot position
        self._garbage = 0  # dead slots at or after _head
        self._pending_count = 0
        self._pending_bytes = 0
        self._version = 0
        self._lists = lists
        self._arrays_version = -1
        self._arrays_window: int | None = None
        self._arrays = None  # kernel.PendingArrays mirror of the snapshot

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, entry: SubmitEntry) -> None:
        """Add an entry at the tail (arrival order)."""
        if entry._owner is not None:
            raise InternalError(
                f"{entry!r} already belongs to channel "
                f"{entry._owner.channel_id}, cannot append to {self.channel_id}"
            )
        entry._owner = self
        self._index[entry] = len(self._slots)
        self._slots.append(entry)
        state = entry._state
        if state is _WAITING or state is _RDV_READY:
            self._account(1, entry.remaining)
        self._version += 1

    def remove(self, entry: SubmitEntry) -> None:
        """Remove a specific entry (dispatch or rendezvous parking)."""
        position = self._index.pop(entry, None)
        if position is None or self._slots[position] is not entry:
            raise InternalError(
                f"{entry!r} not in channel {self.channel_id}"
            )
        self._slots[position] = None
        self._garbage += 1
        entry._owner = None
        state = entry._state
        if state is _WAITING or state is _RDV_READY:
            self._account(-1, -entry.remaining)
        self._version += 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # entry notifications (called by SubmitEntry on owned entries)
    # ------------------------------------------------------------------
    def _note_state_change(
        self, entry: SubmitEntry, old: EntryState, new: EntryState
    ) -> None:
        was_pending = old is _WAITING or old is _RDV_READY
        now_pending = new is _WAITING or new is _RDV_READY
        if was_pending and not now_pending:
            self._account(-1, -entry.remaining)
        elif now_pending and not was_pending:
            self._account(1, entry.remaining)
        self._version += 1

    def _note_bytes_consumed(self, n_bytes: int) -> None:
        self._account(0, -n_bytes)
        self._version += 1

    def _account(self, count_delta: int, bytes_delta: int) -> None:
        self._pending_count += count_delta
        self._pending_bytes += bytes_delta
        lists = self._lists
        if lists is not None:
            lists._total_pending += count_delta
            lists._total_pending_bytes += bytes_delta

    # ------------------------------------------------------------------
    # lazy cleanup
    # ------------------------------------------------------------------
    def _prune(self) -> None:
        # Advance past dead slots and entries fully consumed elsewhere
        # (striping finished their last bytes).  Entries parked by a
        # direct state flip stay in place — skipped by walks, invisible
        # to the counters — so a later flip back to a pending state
        # restores them without losing arrival order.
        slots = self._slots
        head = self._head
        n = len(slots)
        while head < n:
            entry = slots[head]
            if entry is None:
                self._garbage -= 1
            elif entry._state is EntryState.SENT:
                del self._index[entry]
                entry._owner = None
                slots[head] = None
            else:
                break
            head += 1
        self._head = head
        # A workload whose entries only ever exit by state transition
        # (no remove() calls) retires everything right here, so the
        # compaction check must run here too or _slots grows without
        # bound — remove() alone triggering it is not enough.
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        dead = self._head + self._garbage
        if dead < _COMPACT_MIN_GARBAGE or dead * 2 < len(self._slots):
            return
        self._slots = [e for e in self._slots[self._head :] if e is not None]
        self._head = 0
        self._garbage = 0
        self._index = {e: i for i, e in enumerate(self._slots)}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic stamp bumped by every mutation (cache key)."""
        return self._version

    def invalidate_caches(self) -> None:
        """Force the next read to re-walk (equivalence tests use this to defeat
        cross-decision memoization; never needed in normal operation)."""
        self._version += 1

    def pending(self, window: int | None = None) -> list[SubmitEntry]:
        """The first ``window`` pending entries in arrival order.

        ``window`` is the paper's *lookahead window*: how many waiting
        packets the optimizer may examine per decision.  ``None`` means
        unbounded.  Returns a fresh list (one queue walk).
        """
        return self._snapshot(window)

    def pending_view(self, window: int | None = None) -> list[SubmitEntry]:
        """Like :meth:`pending` but the memoized mirror's own entry list,
        without a copy — for readers that only iterate it."""
        return self.pending_arrays(window).entries

    def _snapshot(self, window: int | None) -> list[SubmitEntry]:
        self._prune()
        result: list[SubmitEntry] = []
        slots = self._slots
        for position in range(self._head, len(slots)):
            entry = slots[position]
            if entry is None:
                continue
            # ``_state`` read directly: the property indirection is
            # measurable at snapshot-walk frequency — as is frozenset
            # membership (enum hashing), hence the identity compares.
            state = entry._state
            if state is not _WAITING and state is not _RDV_READY:
                if state is _SENT:
                    # Retired mid-queue (striping finished its bytes on
                    # another rail): blank it now so the dead slot counts
                    # toward compaction instead of lingering until the
                    # head happens to pass it.
                    del self._index[entry]
                    entry._owner = None
                    slots[position] = None
                    self._garbage += 1
                continue
            result.append(entry)
            if window is not None and len(result) >= window:
                break
        return result

    def pending_arrays(self, window: int | None = None):
        """Flat-array mirror of :meth:`pending_view` (same window).

        Returns a :class:`~repro.core.kernel.PendingArrays`: the
        window's entries decomposed into parallel ``remaining`` /
        ``submit_time`` / ``flow_id`` / ``dst`` / ``aggregatable`` /
        ``state`` lists, so the decision kernel's candidate loop reads
        list slots instead of chasing :class:`SubmitEntry` attributes.

        Coherence rides the version stamp: any observable entry
        mutation notifies the queue (state transitions, byte
        consumption) or passes through it (append / remove), bumping
        ``_version`` and invalidating the mirror.  The one meta flag the
        kernel consumes (``no_rdv``) is only ever set while its entry is
        parked *outside* any queue, so re-enqueueing it bumps the
        version too.
        """
        if self._arrays_version == self._version and self._arrays_window == window:
            return self._arrays
        from repro.core.kernel import PendingArrays

        arrays = PendingArrays(self._snapshot(window))
        self._arrays = arrays
        self._arrays_window = window
        self._arrays_version = self._version
        return arrays

    @property
    def pending_bytes(self) -> int:
        """Total remaining bytes over all pending entries (O(1))."""
        return self._pending_bytes

    def __len__(self) -> int:
        return self._pending_count

    def __bool__(self) -> bool:
        return self._pending_count > 0

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def recount(self) -> tuple[int, int, float | None]:
        """Brute-force ``(count, bytes, oldest)`` over the live entries.

        The ground truth the incremental counters must equal; used by
        the property tests, never by the hot path.
        """
        count = 0
        total = 0
        oldest: float | None = None
        for entry in self._slots[self._head :]:
            if entry is None or entry._state not in _PENDING_STATES:
                continue
            count += 1
            total += entry.remaining
            if oldest is None:
                oldest = entry.submit_time
        return count, total, oldest


class WaitingLists:
    """All channel queues of one engine.

    Cross-channel totals are maintained by the queues themselves (see
    :meth:`ChannelQueue._account`), so backlog probes — the engine's
    activation trace, the auto strategy's regime switch, the runtime
    sampler — are O(1) instead of O(backlog).
    """

    __slots__ = ("_queues", "_total_pending", "_total_pending_bytes", "_order")

    def __init__(self) -> None:
        self._queues: dict[int, ChannelQueue] = {}
        self._total_pending = 0
        self._total_pending_bytes = 0
        self._order: list[ChannelQueue] | None = None  # channel-id order

    def queue(self, channel_id: int) -> ChannelQueue:
        """The queue for a channel, created on first use."""
        q = self._queues.get(channel_id)
        if q is None:
            q = ChannelQueue(channel_id, lists=self)
            self._queues[channel_id] = q
            self._order = None
        return q

    def enqueue(self, entry: SubmitEntry, channel_id: int) -> None:
        """Append an entry to its channel's queue."""
        self.queue(channel_id).append(entry)

    def queues(self) -> list[ChannelQueue]:
        """Every queue ever created (empty ones included), in channel-id
        order — the observability sampler's per-channel walk."""
        return [self._queues[channel_id] for channel_id in sorted(self._queues)]

    def non_empty(self) -> Iterator[ChannelQueue]:
        """Queues with at least one pending entry, in channel-id order."""
        order = self._order
        if order is None:
            order = self._order = [
                self._queues[channel_id] for channel_id in sorted(self._queues)
            ]
        for q in order:
            if q._pending_count:
                yield q

    @property
    def total_pending(self) -> int:
        """Pending entries across all channels (O(1))."""
        return self._total_pending

    @property
    def total_pending_bytes(self) -> int:
        """Pending bytes across all channels (O(1))."""
        return self._total_pending_bytes

    def __bool__(self) -> bool:
        return self._total_pending > 0
