"""Tests for waiting packet lists."""

import pytest

from repro.core.waiting import ChannelQueue, WaitingLists
from repro.madeleine.message import Flow
from repro.madeleine.submit import EntryState
from repro.util.errors import InternalError

from tests.core.helpers import data_entry


@pytest.fixture
def flow():
    return Flow(0, "f", "n0", "n1")


class TestChannelQueue:
    def test_arrival_order(self, flow):
        q = ChannelQueue(0)
        entries = [data_entry(flow, 10) for _ in range(3)]
        for e in entries:
            q.append(e)
        assert q.pending() == entries

    def test_window_limits_view(self, flow):
        q = ChannelQueue(0)
        entries = [data_entry(flow, 10) for _ in range(5)]
        for e in entries:
            q.append(e)
        assert q.pending(window=2) == entries[:2]

    def test_sent_entries_invisible(self, flow):
        q = ChannelQueue(0)
        a, b = data_entry(flow, 10), data_entry(flow, 10)
        q.append(a)
        q.append(b)
        a.consume(10)  # SENT
        assert q.pending() == [b]
        assert len(q) == 1

    def test_rdv_ready_visible(self, flow):
        q = ChannelQueue(0)
        e = data_entry(flow, 10)
        q.append(e)
        e.state = EntryState.RDV_READY
        assert q.pending() == [e]

    def test_rdv_pending_invisible(self, flow):
        q = ChannelQueue(0)
        e = data_entry(flow, 10)
        q.append(e)
        e.state = EntryState.RDV_PENDING
        assert q.pending() == []
        assert not q

    def test_remove(self, flow):
        q = ChannelQueue(0)
        e = data_entry(flow, 10)
        q.append(e)
        q.remove(e)
        assert q.pending() == []

    def test_remove_missing_rejected(self, flow):
        q = ChannelQueue(0)
        with pytest.raises(InternalError):
            q.remove(data_entry(flow, 10))

    def test_double_append_rejected(self, flow):
        q0, q1 = ChannelQueue(0), ChannelQueue(1)
        e = data_entry(flow, 10)
        q0.append(e)
        with pytest.raises(InternalError):
            q1.append(e)

    def test_counters_track_consume_and_state(self, flow):
        q = ChannelQueue(0)
        a, b = data_entry(flow, 100), data_entry(flow, 60)
        q.append(a)
        q.append(b)
        assert (len(q), q.pending_bytes) == (2, 160)
        a.consume(40)  # partial dispatch (striping slice)
        assert (len(q), q.pending_bytes) == (2, 120)
        a.consume(60)  # SENT
        assert (len(q), q.pending_bytes) == (1, 60)
        b.state = EntryState.RDV_PENDING  # parked in place
        assert (len(q), q.pending_bytes) == (0, 0)
        b.state = EntryState.RDV_READY  # ACK arrived
        assert (len(q), q.pending_bytes) == (1, 60)
        assert q.recount() == (1, 60, b.submit_time)

    def test_version_bumps_on_mutation(self, flow):
        q = ChannelQueue(0)
        v0 = q.version
        e = data_entry(flow, 10)
        q.append(e)
        v1 = q.version
        assert v1 > v0
        e.consume(4)
        v2 = q.version
        assert v2 > v1
        q.remove(e)
        assert q.version > v2

    def test_pending_snapshot_cached_until_mutation(self, flow):
        q = ChannelQueue(0)
        entries = [data_entry(flow, 10) for _ in range(4)]
        for e in entries:
            q.append(e)
        assert q.pending(2) == entries[:2]
        # A narrower window right after a wider one.
        assert q.pending(1) == entries[:1]
        q.append(data_entry(flow, 10))
        assert len(q.pending()) == 5

    def test_compaction_preserves_order(self, flow):
        q = ChannelQueue(0)
        entries = [data_entry(flow, 10) for _ in range(200)]
        for e in entries:
            q.append(e)
        for e in entries[:150]:  # force compaction via many removals
            q.remove(e)
        assert q.pending() == entries[150:]
        assert q.recount() == (50, 500, entries[150].submit_time)

    def test_slots_bounded_under_state_flip_retirement(self, flow):
        """Regression: entries that exit by flipping to SENT (consume to
        zero — the normal dispatch path) are nulled during pruning, but
        compaction used to run only from ``remove()``.  A workload that
        never calls remove() therefore grew ``_slots`` without bound.
        N append/flip cycles must keep the slot list near the live set,
        not near N."""
        q = ChannelQueue(0)
        cycles = 2000
        for i in range(cycles):
            e = data_entry(flow, 10)
            q.append(e)
            e.consume(10)  # SENT: retired by state flip, never removed
            q.pending()  # a read, as every decision performs
        assert len(q) == 0
        # Bounded by the compaction hysteresis, not by the cycle count.
        assert len(q._slots) < 200

    def test_slots_bounded_with_persistent_tail(self, flow):
        """Same, with a live tail entry keeping the queue non-empty the
        whole time (mid-queue retirement, not just head advance)."""
        q = ChannelQueue(0)
        keeper = data_entry(flow, 10)
        q.append(keeper)
        for i in range(2000):
            e = data_entry(flow, 10)
            q.append(e)
            e.consume(10)
            q.pending()
        assert q.pending() == [keeper]
        assert len(q._slots) < 200

    def test_pending_bytes(self, flow):
        q = ChannelQueue(0)
        q.append(data_entry(flow, 100))
        q.append(data_entry(flow, 50))
        assert q.pending_bytes == 150

    def test_bool(self, flow):
        q = ChannelQueue(0)
        assert not q
        q.append(data_entry(flow, 10))
        assert q


class TestWaitingLists:
    def test_enqueue_routes_by_channel(self, flow):
        w = WaitingLists()
        a, b = data_entry(flow, 10), data_entry(flow, 20)
        w.enqueue(a, 0)
        w.enqueue(b, 3)
        assert w.queue(0).pending() == [a]
        assert w.queue(3).pending() == [b]

    def test_non_empty_in_channel_order(self, flow):
        w = WaitingLists()
        w.enqueue(data_entry(flow, 1), 5)
        w.enqueue(data_entry(flow, 1), 2)
        w.queue(7)  # empty queue, must not appear
        assert [q.channel_id for q in w.non_empty()] == [2, 5]

    def test_totals(self, flow):
        w = WaitingLists()
        w.enqueue(data_entry(flow, 100, submit_time=1.0), 0)
        w.enqueue(data_entry(flow, 50, submit_time=0.5), 1)
        assert w.total_pending == 2
        assert w.total_pending_bytes == 150
        assert bool(w)

    def test_empty_totals(self):
        w = WaitingLists()
        assert w.total_pending == 0
        assert not bool(w)
