"""Tests for repro.util.tracing."""

from repro.util.tracing import KindSink, NullTracer, Tracer, events_to_jsonl


def recording():
    """A tracer plus the list its every event is appended to."""
    tracer, events = Tracer(), []
    tracer.subscribe(events.append)
    return tracer, events


class TestNullTracer:
    def test_discards(self):
        t = NullTracer()
        t.emit(0.0, "a", "x")
        assert not t.enabled

    def test_subscriber_still_fires(self):
        t = NullTracer()
        seen = []
        t.subscribe(seen.append)
        assert t.enabled
        t.emit(0.5, "a", "x", k=1)
        assert len(seen) == 1
        assert seen[0].detail == {"k": 1}


class TestJsonExport:
    def test_to_jsonl_roundtrip(self):
        import json

        t, events = recording()
        t.emit(1.5, "nic:0", "nic.send", bytes=128, dst="n1")
        t.emit(2.0, "nic:0", "nic.idle")
        lines = events_to_jsonl(events).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "time": 1.5,
            "source": "nic:0",
            "kind": "nic.send",
            "detail": {"bytes": 128, "dst": "n1"},
        }

    def test_envelope_keys_never_clobbered(self):
        import json

        from repro.util.tracing import TraceEvent

        event = TraceEvent(1.0, "a", "k", {"time": "bogus", "source": "x", "kind": "y"})
        parsed = json.loads(events_to_jsonl([event]))
        assert parsed["time"] == 1.0
        assert parsed["source"] == "a"
        assert parsed["kind"] == "k"
        assert parsed["detail"] == {"time": "bogus", "source": "x", "kind": "y"}

    def test_nested_json_values_preserved(self):
        import json

        t, events = recording()
        t.emit(0.0, "a", "k", obj={"nested": 1}, seq=[1, (2, 3)])
        parsed = json.loads(events_to_jsonl(events))
        assert parsed["detail"]["obj"] == {"nested": 1}
        assert parsed["detail"]["seq"] == [1, [2, 3]]

    def test_non_json_values_coerced(self):
        import json

        t, events = recording()
        t.emit(0.0, "a", "k", obj=object())
        parsed = json.loads(events_to_jsonl(events))
        assert isinstance(parsed["detail"]["obj"], str)

    def test_empty(self):
        assert events_to_jsonl([]) == ""


class TestTracerFanOut:
    def test_multiple_subscribers(self):
        t = Tracer()
        a, b = [], []
        t.subscribe(a.append)
        t.subscribe(b.append)
        t.emit(0.0, "s", "k")
        assert len(a) == len(b) == 1


class _Picky(KindSink):
    """Consumes two kinds; records what it was handed."""

    def __init__(self):
        self.got = []
        self.handlers = {"a": self.got.append, "b": self.got.append}


class TestKindDispatch:
    def test_kind_sink_sees_only_its_kinds_plain_sink_sees_all(self):
        t = Tracer()
        everything, picky = [], _Picky()
        t.subscribe(everything.append)
        t.subscribe(picky)
        for kind in ("a", "x", "b", "x", "a"):
            t.emit(0.0, "s", kind)
        assert [e.kind for e in everything] == ["a", "x", "b", "x", "a"]
        assert [e.kind for e in picky.got] == ["a", "b", "a"]

    def test_subscription_order_is_call_order_within_a_kind(self):
        t = Tracer()
        order = []
        first, last = _Picky(), _Picky()
        first.handlers = {"a": lambda e: order.append("first")}
        last.handlers = {"a": lambda e: order.append("last")}
        t.subscribe(first)
        t.subscribe(lambda e: order.append("plain"))
        t.subscribe(last)
        t.emit(0.0, "s", "a")
        assert order == ["first", "plain", "last"]

    def test_counts_every_dispatched_event_by_kind(self):
        t = Tracer()
        t.emit(0.0, "s", "dropped")  # nobody listening yet: not an event
        seen = []
        t.subscribe(seen.append)
        for kind in ("a", "b", "a"):
            t.emit(0.0, "s", kind)
        assert t.counts == {"a": 2, "b": 1}
        assert sum(t.counts.values()) == len(seen)

    def test_kind_sink_called_directly_routes_through_its_table(self):
        picky = _Picky()
        t, events = recording()
        t.emit(0.0, "s", "a")
        t.emit(0.0, "s", "x")
        for event in events:
            picky(event)
        assert [e.kind for e in picky.got] == ["a"]
