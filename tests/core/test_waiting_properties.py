"""Property tests for the waiting packet lists under random operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waiting import ChannelQueue, WaitingLists
from repro.madeleine.message import Flow
from repro.madeleine.submit import EntryState
from repro.util.errors import InternalError

from tests.core.helpers import data_entry


@st.composite
def queue_operations(draw):
    """A random interleaving of append / extend / consume / retire / park
    operations, as ``(op, arg)``: ``extend`` takes a batch size,
    ``retire`` one flag per packet item (True: the whole entry, False: a
    partial take)."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        op = draw(
            st.sampled_from(
                [
                    "append",
                    "append",
                    "extend",
                    "extend_owned",
                    "consume_head",
                    "park_head",
                    "consume_partial",
                    "retire_head",
                    "retire",
                ]
            )
        )
        if op == "extend":
            arg = draw(st.integers(min_value=0, max_value=3))
        elif op == "retire":
            arg = draw(st.lists(st.booleans(), min_size=1, max_size=4))
        else:
            arg = None
        ops.append((op, arg))
    return ops


class TestChannelQueueProperties:
    @settings(max_examples=150, deadline=None)
    @given(ops=queue_operations())
    def test_pending_always_waiting_in_arrival_order(self, ops):
        flow = Flow(0, "f", "n0", "n1")
        lists = WaitingLists()
        queue = lists.queue(0)
        appended = []
        for op, arg in ops:
            pending = queue.pending()
            if op == "append":
                entry = data_entry(flow, 100)
                queue.append(entry)
                appended.append(entry)
            elif op == "extend":
                # engine.submit_message: one message's fragments at once.
                batch = [data_entry(flow, 100) for _ in range(arg)]
                queue.extend(batch)
                appended.extend(batch)
            elif op == "extend_owned" and pending:
                # A batch holding an entry some queue already owns is
                # refused whole: nothing of it is enqueued.
                fresh = data_entry(flow, 100)
                with pytest.raises(InternalError):
                    queue.extend([fresh, pending[0]])
                assert fresh._owner is None
                assert queue.pending() == pending
            elif op == "consume_head" and pending:
                head = pending[0]
                head.consume(head.remaining)
            elif op == "consume_partial" and pending:
                head = pending[0]
                if head.remaining > 1:
                    head.consume(head.remaining // 2)
            elif op == "retire_head" and pending:
                # engine._dispatch of a whole entry: one step out of the queue.
                head = pending[0]
                remaining, offset = head.remaining, head.offset
                queue.retire([(head, remaining)])
                assert head.state is EntryState.SENT and head.remaining == 0
                assert head.offset == offset + remaining and head._owner is None
            elif op == "retire" and pending:
                # engine._dispatch of a packet: whole entries and partial
                # takes (striping slices) in one retire.
                items = []
                for entry, whole in zip(pending, arg):
                    r = entry.remaining
                    items.append((entry, r if whole or r == 1 else r // 2))
                before = [(e, e.remaining, e.offset) for e, _ in items]
                queue.retire(items)
                for (entry, take), (_, remaining, offset) in zip(items, before):
                    assert entry.offset == offset + take
                    assert entry.remaining == remaining - take
                    if take == remaining:
                        assert entry.state is EntryState.SENT and entry._owner is None
                    else:
                        assert entry.state is EntryState.WAITING and entry._owner is queue
            elif op == "park_head" and pending:
                head = pending[0]
                if head.state is EntryState.WAITING:
                    queue.remove(head)
                    head.state = EntryState.RDV_PENDING
            count, n_bytes, _oldest = queue.recount()
            assert (len(queue), queue.pending_bytes) == (count, n_bytes)
            assert (lists.total_pending, lists.total_pending_bytes) == (count, n_bytes)

        pending = queue.pending()
        # 1. Only pending-state entries are visible.
        assert all(
            e.state in (EntryState.WAITING, EntryState.RDV_READY) for e in pending
        )
        # 2. Arrival order is preserved.
        order = {id(e): i for i, e in enumerate(appended)}
        positions = [order[id(e)] for e in pending]
        assert positions == sorted(positions)
        # 3. pending_bytes agrees with the entries' remaining counts.
        assert queue.pending_bytes == sum(e.remaining for e in pending)
        # 4. Windowed view is a prefix of the full view.
        assert queue.pending(window=3) == pending[:3]

    @settings(max_examples=80, deadline=None)
    @given(
        channels=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=30
        )
    )
    def test_waiting_lists_totals(self, channels):
        flow = Flow(0, "f", "n0", "n1")
        lists = WaitingLists()
        for channel_id in channels:
            lists.enqueue(data_entry(flow, 10), channel_id)
        assert lists.total_pending == len(channels)
        assert lists.total_pending_bytes == 10 * len(channels)
        seen = [q.channel_id for q in lists.non_empty()]
        assert seen == sorted(set(channels))


@st.composite
def lifecycle_programs(draw):
    """A random program over the engine's entry-lifecycle repertoire.

    Each instruction is ``(op, channel, pick, size)``; ``pick`` indexes
    modularly into whatever population the op acts on, so every drawn
    program is executable regardless of interleaving.
    """
    n = draw(st.integers(min_value=1, max_value=50))
    return [
        (
            draw(
                st.sampled_from(
                    ["append", "dispatch", "retire", "slice", "park", "ack", "fail"]
                )
            ),
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=7)),
            draw(st.integers(min_value=1, max_value=500)),
        )
        for _ in range(n)
    ]


class TestIncrementalAccounting:
    """The O(1) counters must always equal brute-force recomputation."""

    @settings(max_examples=150, deadline=None)
    @given(program=lifecycle_programs())
    def test_counters_equal_recount(self, program):
        flow = Flow(0, "f", "n0", "n1")
        lists = WaitingLists()
        channels = (lists.queue(0), lists.queue(1))
        parked = []  # (entry, channel_id) pairs, as the engine keeps them
        clock = 0.0
        for op, channel_id, pick, size in program:
            queue = channels[channel_id]
            pending = queue.pending()
            clock += 1e-6
            if op == "append":
                lists.enqueue(data_entry(flow, size, submit_time=clock), channel_id)
            elif op == "dispatch" and pending:
                # The two-call retire: consume (may transition to SENT
                # while still owned), then remove.
                entry = pending[pick % len(pending)]
                entry.consume(entry.remaining)
                queue.remove(entry)
            elif op == "retire" and pending:
                # engine._dispatch of a whole entry: ChannelQueue.retire
                # consumes, retires and removes it in one step.
                entry = pending[pick % len(pending)]
                queue.retire([(entry, entry.remaining)])
            elif op == "slice" and pending:
                # Multirail striping: partial consume, entry stays.
                entry = pending[pick % len(pending)]
                if entry.remaining > 1:
                    entry.consume(max(entry.remaining // 2, 1))
            elif op == "park" and pending:
                # engine.park_for_rendezvous: remove, then flip state.
                entry = pending[pick % len(pending)]
                if entry.state is EntryState.WAITING:
                    queue.remove(entry)
                    entry.state = EntryState.RDV_PENDING
                    parked.append((entry, channel_id))
            elif op == "ack" and parked:
                # engine._handle_rdv_ack: ready + re-enqueue.
                entry, origin = parked.pop(pick % len(parked))
                entry.state = EntryState.RDV_READY
                lists.enqueue(entry, origin)
            elif op == "fail" and parked:
                # engine._handle_rdv_timeout: back to eager chunking.
                entry, origin = parked.pop(pick % len(parked))
                entry.state = EntryState.WAITING
                entry.meta["no_rdv"] = True
                lists.enqueue(entry, origin)

            # Invariant: every incremental aggregate equals the
            # brute-force ground truth, after every single operation.
            total_count = 0
            total_bytes = 0
            for q in channels:
                count, n_bytes, oldest = q.recount()
                assert len(q) == count
                assert q.pending_bytes == n_bytes
                head = q.pending(1)
                assert (head[0].submit_time if head else None) == oldest
                total_count += count
                total_bytes += n_bytes
            assert lists.total_pending == total_count
            assert lists.total_pending_bytes == total_bytes
