"""Tests for repro.util.tracing."""

import gc
import json

import pytest

from repro.core.strategies.base import NO_EXPLAIN
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.util.tracing import (
    ABSENT,
    KINDS,
    NullTracer,
    TraceEvent,
    Tracer,
    detail_of,
    event_from_dict,
    event_to_dict,
    events_to_jsonl,
)


def recording():
    """A tracer plus the list its every event is appended to."""
    tracer, events = Tracer(), []
    tracer.subscribe(events.append)
    return tracer, events


def _fields(kind: str) -> tuple:
    """One value per field of ``kind``: ints, a float, strings, a pair
    tuple where the field is an object, a tuple of triples for slices."""
    values = []
    for i, name in enumerate(KINDS[kind]):
        if name in ("queues", "nic_busy"):
            values.append((("n0/0", (3, 768)), ("n0/1", (0, 0))) if name == "queues"
                          else (("n0.mx00", 0.5),))
        elif name == "messages":
            values.append(((7, 0, 64), (8, 1, 32)))
        elif name.startswith("score."):
            values.append(i / 8)
        else:
            values.append(f"{name}-{i}" if i % 2 else i)
    return tuple(values)


#: One event of every kind, plus the decide record in its other shapes.
_EVENTS = [(1.5, "engine:n0", kind, *_fields(kind)) for kind in KINDS]
_DECIDE = _EVENTS[list(KINDS).index("optimizer.decide")]
_EVENTS += [
    _DECIDE[:-8] + NO_EXPLAIN,  # a strategy that explains nothing
    _DECIDE[:-8] + ("deep",) + NO_EXPLAIN[1:],  # auto's regime alone
    _DECIDE[:-8] + (ABSENT, 40, 64, "budget", 5, None, None, None),  # search, no winner
    truncation_marker([(2.5, "nic:n0.mx00", "nic.idle")], 10, 4, None),
    truncation_marker([], 10, 4, 6),
]


class TestNullTracer:
    def test_discards(self):
        t = NullTracer()
        t.emit((0.0, "nic:n0.mx00", "nic.idle"))
        assert not t.enabled

    def test_subscriber_still_fires(self):
        t = NullTracer()
        seen = []
        t.subscribe(seen.append)
        assert t.enabled
        t.emit((0.5, "engine:n0", "optimizer.activate", "idle", 1))
        assert seen == [(0.5, "engine:n0", "optimizer.activate", "idle", 1)]
        assert detail_of(seen[0]) == {"trigger": "idle", "backlog": 1}


class TestTraceEvent:
    def test_emitted_events_are_trace_events(self):
        """An event is the plain tuple ``(time, source, kind, *fields)``."""
        t, events = recording()
        t.emit((0.5, "nic:n0.mx00", "rel.drop", 3, 0))
        assert type(events[0]) is TraceEvent is tuple
        assert events[0] == (0.5, "nic:n0.mx00", "rel.drop", 3, 0)

    @pytest.mark.parametrize("name", ["time", "source", "kind", "detail"])
    def test_fields_cannot_be_assigned(self, name):
        t, events = recording()
        t.emit((0.5, "rel:n0.mx00", "rel.drop", 3, 0))
        with pytest.raises(AttributeError):
            setattr(events[0], name, None)
        with pytest.raises(TypeError):
            events[0][0] = None
        assert events[0] == (0.5, "rel:n0.mx00", "rel.drop", 3, 0)

    def test_every_kind_declares_distinct_names(self):
        for kind, names in KINDS.items():
            assert len(set(names)) == len(names), kind

    def test_decide_carries_the_cost_terms_then_the_explain_fields(self):
        names = KINDS["optimizer.decide"]
        assert [n for n in names if n.startswith("score.")] == list(names[7:16])
        assert names[15] == "score.score"  # CostModel.terms ends with the score
        assert len(names[16:]) == len(NO_EXPLAIN)

    @pytest.mark.parametrize("event", _EVENTS, ids=lambda e: e[2])
    def test_an_event_is_untracked_once_collected(self, event):
        """Every field is an atom, so the collector untracks the event
        (one pass per level of tuples it holds)."""
        t, events = recording()
        t.emit(tuple(list(event)))  # a fresh tuple: tracked
        assert events == [event] and gc.is_tracked(events[0])
        for _ in range(3):
            gc.collect()
        assert not gc.is_tracked(events[0])

    def test_the_suite_rejects_a_wrong_arity(self):
        """The test conftest checks every emitted event against KINDS."""
        t, events = recording()
        with pytest.raises(AssertionError, match="nic.idle takes 0 fields"):
            t.emit((0.0, "nic:n0.mx00", "nic.idle", 1))
        with pytest.raises(AssertionError, match="rel.drop takes 2 fields"):
            t.emit((0.0, "rel:n0.mx00", "rel.drop", 1))
        with pytest.raises(AssertionError, match="unknown trace event kind"):
            t.emit((0.0, "a", "no.such.kind"))
        with pytest.raises(AssertionError, match="not atoms"):
            t.emit((0.0, "engine:n0", "optimizer.activate", "idle", [1]))
        assert events == []


class TestDetail:
    def test_absent_fields_are_left_out_and_none_kept(self):
        event = _DECIDE[:-8] + (ABSENT, 3, 64, "exhausted", 2, None, None, None)
        detail = detail_of(event)
        assert "regime" not in detail
        assert detail["seed_channel"] is None
        assert list(detail)[7:] == [
            "score", "candidates", "budget", "truncation", "widest_items",
            "best_score", "seed_channel", "seed",
        ]

    def test_score_is_nested_in_cost_term_order(self):
        score = detail_of(_DECIDE)["score"]
        assert list(score) == [name[6:] for name in KINDS["optimizer.decide"][7:16]]

    def test_pair_fields_read_as_objects(self):
        sample = _EVENTS[list(KINDS).index("obs.sample")]
        detail = detail_of(sample)
        assert detail["queues"] == {"n0/0": (3, 768), "n0/1": (0, 0)}
        assert detail["nic_busy"] == {"n0.mx00": 0.5}

    def test_wrong_arity_is_an_error(self):
        with pytest.raises(ValueError):
            detail_of((0.0, "nic:n0.mx00", "nic.idle", 1))


class TestJsonExport:
    @pytest.mark.parametrize("event", _EVENTS, ids=lambda e: e[2])
    def test_every_kind_round_trips(self, event):
        record = event_to_dict(event)
        assert event_from_dict(record) == event
        assert event_from_dict(json.loads(json.dumps(record))) == event

    def test_to_jsonl_roundtrip(self):
        t, events = recording()
        t.emit((1.5, "rel:n0.mx00", "rel.retransmit", 128, 2))
        t.emit((2.0, "nic:n0.mx00", "nic.idle"))
        lines = [json.loads(line) for line in events_to_jsonl(events).splitlines()]
        assert lines == [
            {"time": 1.5, "source": "rel:n0.mx00", "kind": "rel.retransmit",
             "detail": {"packet": 128, "attempt": 2}},
            {"time": 2.0, "source": "nic:n0.mx00", "kind": "nic.idle", "detail": {}},
        ]
        assert [event_from_dict(line) for line in lines] == events

    def test_envelope_keys_never_clobbered(self):
        """Fields sit under ``detail``; no kind names one like the envelope."""
        for names in KINDS.values():
            assert not {"time", "source", "kind", "detail"} & {n.partition(".")[0] for n in names}
        event = (1.0, "engine:n0", "optimizer.activate", "time", 3)
        parsed = json.loads(events_to_jsonl([event]))
        assert parsed == {"time": 1.0, "source": "engine:n0", "kind": "optimizer.activate",
                          "detail": {"trigger": "time", "backlog": 3}}

    def test_nested_json_values_preserved(self):
        """Tuples of atoms are arrays, pair fields objects, ``score.*`` one object."""
        sample = _EVENTS[list(KINDS).index("obs.sample")]
        dispatch = _EVENTS[list(KINDS).index("engine.dispatch")]
        parsed = [json.loads(line) for line in events_to_jsonl([sample, dispatch]).splitlines()]
        assert parsed[0]["detail"]["queues"] == {"n0/0": [3, 768], "n0/1": [0, 0]}
        assert parsed[0]["detail"]["nic_busy"] == {"n0.mx00": 0.5}
        assert parsed[1]["detail"]["messages"] == [[7, 0, 64], [8, 1, 32]]

    def test_score_written_as_an_object(self):
        record = json.loads(events_to_jsonl([_DECIDE]))
        terms = [name[6:] for name in KINDS["optimizer.decide"][7:16]]
        assert record["detail"]["score"] == dict(zip(terms, _DECIDE[10:19]))

    def test_a_missing_field_reads_absent(self):
        record = {"time": 1.0, "source": "nic:n0.mx00", "kind": "nic.send",
                  "detail": {"packet": 4, "occupancy": 1e-6}}
        event = event_from_dict(record)
        assert len(event) == 3 + len(KINDS["nic.send"])
        assert event[3] == 4 and event[8] == 1e-6 and event[4] is ABSENT
        assert event_to_dict(event) == record

    def test_an_unknown_kind_is_an_error(self):
        with pytest.raises(KeyError):
            event_from_dict({"time": 0.0, "source": "a", "kind": "tick"})

    def test_empty(self):
        assert events_to_jsonl([]) == ""


class TestTracerFanOut:
    def test_multiple_subscribers(self):
        t = Tracer()
        a, b = [], []
        t.subscribe(a.append)
        t.subscribe(b.append)
        t.emit((0.0, "engine:n0", "hold.fire"))
        assert len(a) == len(b) == 1
        assert a[0] is b[0]


class TestKindDispatch:
    def test_subscription_order_is_call_order_within_a_kind(self):
        t = Tracer()
        order = []
        t.subscribe(lambda e: order.append("first"))
        t.subscribe(lambda e: order.append("plain"))
        t.subscribe(lambda e: order.append("last"))
        t.emit((0.0, "engine:n0", "hold.fire"))
        assert order == ["first", "plain", "last"]

    def test_counts_every_dispatched_event_by_kind(self):
        """The tracer counts nothing; a recorder counts what it was handed,
        evicted events included."""
        t, sink, ring = Tracer(), ListSink(), RingBufferSink(1)
        t.emit((0.0, "engine:n0", "hold.fire"))  # nobody listening yet: not an event
        t.subscribe(sink)
        t.subscribe(ring)
        for kind in ("nic.idle", "nic.fail", "nic.idle"):
            t.emit((0.0, "nic:n0.mx00", kind))
        assert sink.counts == ring.counts == {"nic.idle": 2, "nic.fail": 1}
        assert sum(ring.counts.values()) == ring.seen == len(sink) == 3

    def test_one_sink_is_the_emit(self):
        """With one subscriber, emitting is calling it (a ListSink records
        in C); a second subscriber gets every later event too."""
        t, sink = Tracer(), ListSink()
        t.subscribe(sink)
        t.emit((0.0, "nic:n0.mx00", "nic.idle"))
        seen = []
        t.subscribe(seen.append)
        t.emit((1.0, "nic:n0.mx00", "nic.recover"))
        assert len(sink) == 2 and seen == [sink[-1]]
