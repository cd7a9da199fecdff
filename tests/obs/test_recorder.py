"""Tests for the trace sinks, especially flight-recorder bounds."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.recorder import ListSink, RingBufferSink
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent, Tracer


def _event(i: int) -> TraceEvent:
    return TraceEvent(float(i), "test:src", "test.kind", {"i": i})


class TestListSink:
    def test_keeps_everything_in_order(self):
        sink = ListSink()
        for i in range(5):
            sink(_event(i))
        assert [e.detail["i"] for e in sink] == [0, 1, 2, 3, 4]
        assert sink.seen == 5
        assert sink.dropped == 0

    def test_records_a_tracers_events_in_order(self):
        tracer = Tracer()
        sink = ListSink()
        assert sink.seen == 0 and sink.events == [] and sink.to_jsonl() == ""
        tracer.subscribe(sink)
        assert tracer.enabled
        for i in range(4):
            tracer.emit(float(i), "test:src", "test.kind", i=i)
        assert sink.events == [_event(i) for i in range(4)]
        assert list(sink) == sink.events and len(sink) == 4
        assert sink.seen == 4
        assert sink.dropped == 0
        lines = [json.loads(line) for line in sink.to_jsonl().splitlines()]
        assert [line["detail"]["i"] for line in lines] == [0, 1, 2, 3]
        assert lines[0] == {
            "time": 0.0, "source": "test:src", "kind": "test.kind", "detail": {"i": 0},
        }

    def test_to_jsonl(self):
        sink = ListSink()
        sink(_event(3))
        record = json.loads(sink.to_jsonl())
        assert record == {
            "time": 3.0,
            "source": "test:src",
            "kind": "test.kind",
            "detail": {"i": 3},
        }


class TestRingBufferSink:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(0)

    def test_keeps_newest_window(self):
        sink = RingBufferSink(3)
        for i in range(10):
            sink(_event(i))
        assert [e.detail["i"] for e in sink.events] == [7, 8, 9]
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
        kept = [e.detail["i"] for e in sink.events]
        assert kept == list(range(max(0, n_events - capacity), n_events))

    def test_subscribing_enables_tracer(self):
        tracer = Tracer()
        assert not tracer.enabled
        sink = RingBufferSink(8)
        tracer.subscribe(sink)
        assert tracer.enabled
        tracer.emit(1.0, "a", "k", x=1)
        assert sink.seen == 1
