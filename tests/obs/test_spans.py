"""Span reconstruction: stitching trace events into message chains."""

from __future__ import annotations

import pytest

import repro.obs.spans as spans_mod
from repro.obs.spans import (
    SpanCollector,
    interval_overlap,
    merge_intervals,
    subtract_intervals,
    total_length,
)
from repro.util.tracing import TraceEvent


def _e(t, source, kind, **detail):
    return TraceEvent(t, source, kind, detail)


def _basic_stream(src="n0", dst="n1", mid=7, pid=42, size=1024):
    """One eager message: submit -> dispatch -> send -> deliver -> complete."""
    return [
        _e(1.0, f"engine:{src}", "collect.enqueue",
           message=mid, flow="f.stream", dst=dst, bytes=size, fragments=1),
        _e(2.0, f"engine:{src}", "engine.dispatch",
           packet=pid, dst=dst, packet_kind="eager", bytes=size,
           messages=[[mid, 0, size]]),
        _e(3.0, f"nic:{src}.mx00", "nic.send",
           packet=pid, occupancy=0.5),
        _e(5.0, f"rx:{dst}", "rx.deliver",
           packet=pid, src=src, corr=None, bytes=size),
        _e(6.0, f"reasm:{dst}", "message.complete",
           message=mid, flow="f.stream", src=src, bytes=size),
    ]


class TestIntervalHelpers:
    def test_merge_unions_overlaps(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(2, 2), (3, 1)]) == []

    def test_overlap_clips(self):
        assert interval_overlap([(0, 10)], 2, 4) == [(2, 4)]
        assert interval_overlap([(0, 1)], 2, 4) == []

    def test_subtract_punches_holes(self):
        out = subtract_intervals([(0.0, 10.0)], [(2.0, 3.0), (5.0, 7.0)])
        assert out == [(0.0, 2.0), (3.0, 5.0), (7.0, 10.0)]
        assert total_length(out) == pytest.approx(7.0)


class TestChainReconstruction:
    def test_basic_chain(self):
        collector = SpanCollector()
        collector.ingest_all(_basic_stream())
        chains = list(collector.drain_completed())
        assert len(chains) == 1
        chain = chains[0]
        assert chain.key == "n0#m7"
        assert chain.submit_t == 1.0
        assert chain.complete_t == 6.0
        assert chain.covered
        assert len(chain.legs) == 1
        leg = chain.legs[0]
        assert leg.key == "n0#42"
        assert (leg.dispatch_t, leg.send_t, leg.deliver_t) == (2.0, 3.0, 5.0)
        assert leg.occupancy == 0.5
        assert leg.nic == "n0.mx00"
        assert collector.incomplete == 0

    def test_duplicate_deliver_counts_bytes_once(self):
        events = _basic_stream()
        events.insert(4, _e(5.5, "rx:n1", "rx.deliver",
                            packet=42, src="n0", corr=None, bytes=1024))
        collector = SpanCollector()
        collector.ingest_all(events)
        (chain,) = collector.drain_completed()
        assert chain.delivered_bytes == 1024
        assert chain.legs[0].deliver_t == 5.0  # first delivery wins

    def test_multi_leg_chain(self):
        events = [
            _e(1.0, "engine:n0", "collect.enqueue",
               message=1, flow="f", dst="n1", bytes=200, fragments=2),
            _e(2.0, "engine:n0", "engine.dispatch",
               packet=10, dst="n1", packet_kind="eager", bytes=100,
               messages=[[1, 0, 100]]),
            _e(2.1, "engine:n0", "engine.dispatch",
               packet=11, dst="n1", packet_kind="eager", bytes=100,
               messages=[[1, 1, 100]]),
            _e(3.0, "rx:n1", "rx.deliver", packet=10, src="n0", corr=None),
            _e(4.0, "rx:n1", "rx.deliver", packet=11, src="n0", corr=None),
            _e(4.5, "reasm:n1", "message.complete",
               message=1, flow="f", src="n0"),
        ]
        collector = SpanCollector()
        collector.ingest_all(events)
        (chain,) = collector.drain_completed()
        assert len(chain.legs) == 2
        assert chain.delivered_bytes == 200

    def test_hold_windows_open_and_close(self):
        collector = SpanCollector()
        # An open chain submitted before the first window keeps it alive.
        collector.ingest(_e(0.9, "engine:n0", "collect.enqueue",
                            message=1, flow="f", dst="n1", bytes=10, fragments=1))
        collector.ingest(_e(1.0, "engine:n0", "hold.arm", wake_at=1.5, backlog=3))
        collector.ingest(_e(1.2, "engine:n0", "hold.arm", wake_at=1.5, backlog=4))
        collector.ingest(_e(1.5, "engine:n0", "hold.fire"))
        collector.ingest(_e(2.0, "engine:n0", "hold.arm", wake_at=2.4, backlog=1))
        assert collector.hold_windows["n0"] == [(1.0, 1.5), (2.0, None)]

    def test_hold_windows_pruned_behind_the_oldest_open_chain(self):
        """A long run leaks no window: 10,000 holds with a sliding set of
        open chains keep only the windows those chains can still need."""
        collector = SpanCollector()
        open_chains = 8
        longest = 0
        for i in range(10_000):
            t = float(i)
            collector.ingest(_e(t, "engine:n0", "collect.enqueue",
                                message=i, flow="f", dst="n1", bytes=8, fragments=1))
            collector.ingest(_e(t + 0.25, "engine:n0", "hold.arm", wake_at=t + 0.5))
            collector.ingest(_e(t + 0.5, "engine:n0", "hold.fire"))
            if i >= open_chains:  # the oldest open chain completes
                collector.ingest(_e(t + 0.75, "reasm:n1", "message.complete",
                                    message=i - open_chains, flow="f", src="n0"))
                assert len(list(collector.drain_completed())) == 1
            longest = max(longest, len(collector.hold_windows["n0"]))
        assert longest <= open_chains + 2
        # ...and every window an open chain overlaps is still there.
        needed = [
            (chain.submit_t + 0.25, chain.submit_t + 0.5)
            for chain in collector.chains.values()
        ]
        assert collector.hold_windows["n0"][-len(needed):] == needed

    def test_undrained_completions_keep_their_windows(self):
        """Offline use drains once at the end: nothing those completed
        chains were held by may be pruned before that."""
        collector = SpanCollector()
        for i in range(50):
            t = float(i)
            collector.ingest(_e(t, "engine:n0", "collect.enqueue",
                                message=i, flow="f", dst="n1", bytes=8, fragments=1))
            collector.ingest(_e(t + 0.25, "engine:n0", "hold.arm", wake_at=t + 0.5))
            collector.ingest(_e(t + 0.5, "engine:n0", "hold.fire"))
            collector.ingest(_e(t + 0.75, "reasm:n1", "message.complete",
                                message=i, flow="f", src="n0"))
        assert len(collector.hold_windows["n0"]) == 50
        assert len(list(collector.drain_completed())) == 50

    def test_rdv_window_closed_by_ready(self):
        collector = SpanCollector()
        collector.ingest(_e(1.0, "engine:n0", "collect.enqueue",
                            message=3, flow="f", dst="n1", bytes=10, fragments=1))
        collector.ingest(_e(1.1, "engine:n0", "rdv.park", message=3))
        collector.ingest(_e(1.9, "engine:n0", "rdv.ready", message=3))
        chain = collector.chains[("n0", 3)]
        assert chain.rdv_windows == [(1.1, 1.9)]

    def test_reorder_spans_attach_to_leg(self):
        collector = SpanCollector()
        collector.ingest(_e(3.0, "rel:n1", "reorder.enter",
                            packet=9, src="n0", seq=2, expected=1))
        collector.ingest(_e(3.7, "rel:n1", "reorder.release", packet=9, src="n0"))
        leg = collector.legs["n0#9"]
        assert (leg.reorder_enter_t, leg.reorder_release_t) == (3.0, 3.7)
        assert leg.arrival_t == 3.0

    def test_retransmits_and_drops_recorded(self):
        collector = SpanCollector()
        collector.ingest(_e(2.0, "rel:n0.mx00", "rel.drop", packet=5, attempt=0))
        collector.ingest(_e(2.5, "rel:n0.mx00", "rel.retransmit", packet=5, attempt=1))
        leg = collector.legs["n0#5"]
        assert leg.drops == 1
        assert leg.retransmits == [2.5]

    def test_finish_closes_covered_chains(self):
        events = _basic_stream()[:-1]  # no message.complete at all
        collector = SpanCollector()
        collector.ingest_all(events)
        assert collector.incomplete == 1
        collector.finish()
        (chain,) = collector.drain_completed()
        assert chain.complete_t == 5.0  # last delivery stands in
        assert collector.incomplete == 0

    def test_uncovered_chain_stays_incomplete(self):
        collector = SpanCollector()
        collector.ingest(_e(1.0, "engine:n0", "collect.enqueue",
                            message=1, flow="f", dst="n1", bytes=100, fragments=1))
        collector.finish()
        assert collector.incomplete == 1
        assert list(collector.drain_completed()) == []

    def test_truncation_marker_ingested(self):
        collector = SpanCollector()
        collector.ingest(_e(9.0, "obs:recorder", "obs.truncated",
                            seen=1000, dropped=900, capacity=100))
        assert collector.trace_dropped == 900
        assert collector.trace_seen == 1000

    def test_pending_cap_evicts_fifo(self, monkeypatch):
        monkeypatch.setattr(spans_mod, "_PENDING_CAP", 2)
        collector = SpanCollector()
        for mid in range(3):
            collector.ingest(_e(float(mid), "engine:n0", "collect.enqueue",
                                message=mid, flow="f", dst="n1",
                                bytes=10, fragments=1))
        assert collector.evicted_chains == 1
        assert ("n0", 0) not in collector.chains
        assert ("n0", 2) in collector.chains
