"""Tests for the trace sinks, especially flight-recorder bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.recorder import ListSink, RingBufferSink
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent, Tracer


def _event(i: int) -> TraceEvent:
    """Event ``i``: a ``rel.retransmit`` of packet ``i``."""
    return (float(i), "rel:n0.mx00", "rel.retransmit", i, 1)


class TestListSink:
    def test_keeps_everything_in_order(self):
        sink = ListSink()
        for i in range(5):
            sink(_event(i))
        assert [e[3] for e in sink] == [0, 1, 2, 3, 4]
        assert sink.seen == 5
        assert sink.dropped == 0

    def test_records_a_tracers_events_in_order(self):
        tracer = Tracer()
        sink = ListSink()
        assert sink.seen == 0 and sink.events == []
        tracer.subscribe(sink)
        assert tracer.enabled
        for i in range(4):
            tracer.emit((float(i), "rel:n0.mx00", "rel.retransmit", i, 1))
        assert sink.events == [_event(i) for i in range(4)]
        assert list(sink) == sink.events and len(sink) == 4
        assert sink.seen == 4
        assert sink.dropped == 0


class TestRingBufferSink:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(0)

    def test_keeps_newest_window(self):
        sink = RingBufferSink(3)
        for i in range(10):
            sink(_event(i))
        assert [e[3] for e in sink.events] == [7, 8, 9]
        assert sink.seen == 10
        assert sink.dropped == 7

    @given(st.integers(1, 50), st.integers(0, 200))
    def test_eviction_bounds(self, capacity, n_events):
        sink = RingBufferSink(capacity)
        for i in range(n_events):
            sink(_event(i))
        assert len(sink) <= capacity
        assert len(sink) == min(capacity, n_events)
        assert sink.seen == n_events
        assert sink.dropped == n_events - len(sink)
        # the window is the most recent events, oldest first
        kept = [e[3] for e in sink.events]
        assert kept == list(range(max(0, n_events - capacity), n_events))

    def test_subscribing_enables_tracer(self):
        tracer = Tracer()
        assert not tracer.enabled
        sink = RingBufferSink(8)
        tracer.subscribe(sink)
        assert tracer.enabled
        tracer.emit((1.0, "nic:n0.mx00", "nic.idle"))
        assert sink.seen == 1
