"""Exporter round-trips: Chrome trace schema and JSONL."""

import json

import pytest

from repro.obs.export import load_events, to_chrome_trace, write_trace
from repro.util.errors import ConfigurationError
from repro.util.tracing import ABSENT, TraceEvent, detail_of

#: A simulated nic.send: packet, kind, bytes, segments, dst, occupancy,
#: and no live-only fields.
_SEND = (1, "eager", 256, 1, "n1", 1e-6, ABSENT, ABSENT)


def _sample_stream() -> list[TraceEvent]:
    return [
        (0.0, "engine:n0", "optimizer.activate", "submit", 0),
        (1e-6, "nic:n0.mx00", "nic.send", *_SEND),
        (2e-6, "engine:n0", "rdv.park", 0, 7, 65536, 3),
        (3e-6, "nic:n0.mx00", "nic.idle"),
        (
            4e-6,
            "obs:sampler",
            "obs.sample",
            (("n0/0", (3, 768)),),  # queues
            (("n0.mx00", 0.5),),  # nic_busy
            3,  # backlog
            768,  # backlog_bytes
            0,  # retransmits_in_flight
            1,  # rendezvous_in_flight
            0,  # holds_armed
            0,  # completed
        ),
        (5e-6, "engine:n1", "rdv.ready", 0, 7, 3),
    ]


class TestChromeTrace:
    def test_valid_schema(self):
        doc = to_chrome_trace(_sample_stream())
        assert isinstance(doc["traceEvents"], list)
        json.dumps(doc)  # everything must be JSON-serializable
        for entry in doc["traceEvents"]:
            assert entry["ph"] in ("B", "E", "b", "e", "C", "i", "M")
            assert isinstance(entry["pid"], int)
            if entry["ph"] != "M":
                assert isinstance(entry["ts"], (int, float))

    def test_timestamps_are_microseconds(self):
        doc = to_chrome_trace(_sample_stream())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        activate = next(e for e in instants if e["name"] == "optimizer.activate")
        assert activate["ts"] == 0.0
        sample = next(e for e in instants if e["name"] == "obs.sample")
        assert sample["ts"] == pytest.approx(4.0)

    def test_nic_span_is_balanced(self):
        doc = to_chrome_trace(_sample_stream())
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["ts"] <= ends[0]["ts"]
        assert (begins[0]["pid"], begins[0]["tid"]) == (ends[0]["pid"], ends[0]["tid"])

    def test_rdv_async_span_keyed_by_token(self):
        doc = to_chrome_trace(_sample_stream())
        b = next(e for e in doc["traceEvents"] if e["ph"] == "b")
        e = next(e for e in doc["traceEvents"] if e["ph"] == "e")
        assert b["id"] == e["id"] == 7
        assert b["cat"] == e["cat"] == "rdv"
        assert e["args"]["outcome"] == "ready"

    def test_unmatched_spans_are_closed(self):
        events = [
            (0.0, "nic:n0.mx00", "nic.send", *_SEND),
            (1e-6, "engine:n0", "rdv.park", 0, 1, 65536, 3),
        ]
        doc = to_chrome_trace(events)
        phases = [e["ph"] for e in doc["traceEvents"] if e["ph"] in "BEbe"]
        assert sorted(phases) == ["B", "E", "b", "e"]
        closer = next(e for e in doc["traceEvents"] if e["ph"] == "e")
        assert closer["args"]["outcome"] == "unresolved"

    def test_nodes_become_processes_with_metadata(self):
        doc = to_chrome_trace(_sample_stream())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"cluster", "node n0", "node n1"} <= names
        threads = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "optimizer" in threads
        assert any("mx00" in t for t in threads)

    def test_sample_becomes_counter_tracks(self):
        doc = to_chrome_trace(_sample_stream())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "queue depth" in names
        assert "busy n0.mx00" in names
        assert "backlog" in names
        for entry in counters:
            assert all(
                isinstance(v, (int, float)) for v in entry["args"].values()
            )


class TestRoundTrip:
    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        events = _sample_stream()
        path = tmp_path / "t.jsonl"
        assert write_trace(path, events) == "jsonl"
        loaded = load_events(path)
        assert loaded == events

    def test_chrome_trace_is_not_read_back(self, tmp_path):
        events = _sample_stream()
        path = tmp_path / "t.json"
        assert write_trace(path, events) == "chrome"
        # Every event is still an instant carrying its fields and source.
        instants = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "i"]
        assert [[e["name"], e["args"]] for e in instants] == json.loads(json.dumps(
            [[e[2], {**detail_of(e), "source": e[1]}] for e in events]
        ))
        with pytest.raises(ConfigurationError, match=r"t\.json is a Chrome trace.*\.jsonl"):
            load_events(path)

    def test_single_line_jsonl_detected(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_trace(path, [_sample_stream()[0]])
        loaded = load_events(path)
        assert len(loaded) == 1
        assert loaded[0][2] == "optimizer.activate"

    def test_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_events(path) == []

    def test_bad_lines_are_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0, "source": "nic:n0.mx00", "kind": "nic.idle"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            load_events(path)
        path.write_text('{"time": 1.0, "source": "a", "kind": "no.such.kind"}\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            load_events(path)
        path.write_text(  # a field object that is not one
            '{"time": 1.0, "source": "engine:n0", "kind": "optimizer.decide",'
            ' "detail": {"score": 3}}\n'
        )
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            load_events(path)

    def test_json_without_trace_events_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ConfigurationError, match="other.json:1: bad trace record"):
            load_events(path)
