"""Causal attribution: blame buckets, the plane's export, and ``obs why``."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analyze import analyze_file
from repro.obs.causal import (
    Leg,
    MessageChain,
    _clipped,
    attribute_chain,
    attribute_events,
    export_blame,
    interval_overlap,
    main as why_main,
    merge_intervals,
    render_report,
    render_waterfall,
)
from repro.obs.metrics import MetricsRegistry
from repro.live.cluster import _ObsCollector
from repro.obs.export import write_trace
from repro.obs.recorder import ListSink
from repro.runtime.scenario import run_scenario
from repro.util.tracing import NullTracer, Tracer, event_from_dict, event_to_dict

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _event(time, source, kind, detail):
    """An event from the named fields it needs; the rest are absent."""
    return event_from_dict({"time": time, "source": source, "kind": kind, "detail": detail})


def _truncated_traces(plane, tmp_path):
    """The two truncated traces a run can export: the flight recorder's
    own, and a live coordinator's merge of a peer whose spool dropped
    events (here the recorder's kept window, streamed as one peer's)."""
    ring = tmp_path / "ring.jsonl"
    plane.write_trace(ring)
    collector = _ObsCollector()
    collector.ingest({
        "node": "n0",
        "trace": [event_to_dict(e) for e in plane.events],
        "trace_seen": plane.sink.seen,
        "trace_dropped": plane.sink.dropped,
    })
    merged = tmp_path / "merged.jsonl"
    write_trace(merged, collector.merge())
    return ring, merged


def _chain(
    submit=0.0,
    complete=10.0,
    send=4.0,
    deliver=9.0,
    occupancy=1.0,
    rdv=(),
    retransmits=(),
    reorder_enter=None,
    reorder_release=None,
):
    leg = Leg(
        key="n0#1",
        node="n0",
        packet_id=1,
        dst="n1",
        nic="n0.mx00",
        packet_kind="eager",
        bytes=100,
        dispatch_t=submit + 0.1,
        send_t=send,
        occupancy=occupancy,
        reorder_enter_t=reorder_enter,
        reorder_release_t=reorder_release,
        deliver_t=deliver,
        retransmits=list(retransmits),
        slices=[(5, 0, 100)],
    )
    return MessageChain(
        src="n0",
        message_id=5,
        flow="f",
        dst="n1",
        bytes=100,
        fragments=1,
        submit_t=submit,
        complete_t=complete,
        delivered_bytes=100,
        last_deliver_t=deliver,
        legs=[leg],
        rdv_windows=list(rdv),
    )


def _assert_balanced(blame):
    total = sum(blame.buckets.values())
    assert math.isclose(total, blame.e2e, rel_tol=1e-9, abs_tol=1e-12)
    assert all(v >= 0.0 for v in blame.buckets.values())


class TestAttributeChain:
    def test_incomplete_chain_returns_none(self):
        chain = _chain()
        chain.complete_t = None
        assert attribute_chain(chain) is None

    def test_buckets_partition_the_e2e_exactly(self):
        blame = attribute_chain(_chain())
        _assert_balanced(blame)
        # queue span [0,4] has no hold/rdv evidence -> nic_queue
        assert blame.buckets["nic_queue"] == pytest.approx(4.0)
        # transit [4,9]: 1.0 service, rest wire
        assert blame.buckets["service"] == pytest.approx(1.0)
        assert blame.buckets["wire"] == pytest.approx(4.0)
        # deliver -> complete gap [9,10] has no span evidence: it must
        # land in the explicit residual, never silently vanish
        assert blame.buckets["reorder"] == pytest.approx(0.0)
        assert blame.buckets["unattributed"] == pytest.approx(1.0)

    def test_reorder_residency_charged_to_reorder(self):
        blame = attribute_chain(
            _chain(reorder_enter=7.0, reorder_release=9.0,
                   deliver=9.0, complete=9.0)
        )
        _assert_balanced(blame)
        assert blame.buckets["reorder"] == pytest.approx(2.0)
        assert blame.buckets["wire"] == pytest.approx(2.0)  # [4,7] minus service

    def test_rdv_window_beats_hold_on_overlap(self):
        blame = attribute_chain(
            _chain(rdv=[(1.0, 3.0)]),
            hold_windows={"n0": [(0.5, 2.0)]},
        )
        _assert_balanced(blame)
        assert blame.buckets["rdv"] == pytest.approx(2.0)
        assert blame.buckets["hold"] == pytest.approx(0.5)  # [0.5,1.0] only
        assert blame.buckets["nic_queue"] == pytest.approx(1.5)

    def test_open_windows_clip_at_send(self):
        blame = attribute_chain(
            _chain(rdv=[(1.0, None)]),
            hold_windows={"n0": [(0.2, None)]},
        )
        _assert_balanced(blame)
        assert blame.buckets["rdv"] == pytest.approx(3.0)  # [1,4]
        assert blame.buckets["hold"] == pytest.approx(0.8)  # [0.2,1.0]

    def test_retransmit_rounds_charge_the_recovery_window(self):
        blame = attribute_chain(
            _chain(send=2.0, deliver=9.0, retransmits=[4.0, 7.0],
                   reorder_enter=8.5)
        )
        _assert_balanced(blame)
        # last rtx at 7.0, send at 2.0 -> 5.0 of recovery
        assert blame.buckets["retransmit"] == pytest.approx(5.0)
        assert blame.buckets["service"] == pytest.approx(1.0)
        assert blame.buckets["wire"] == pytest.approx(0.5)
        assert blame.buckets["reorder"] == pytest.approx(0.5)

    def test_critical_path_is_slowest_leg_not_sum(self):
        chain = _chain()
        fast = Leg(key="n0#2", node="n0", packet_id=2, nic="n0.mx00",
                   send_t=4.0, occupancy=3.0, deliver_t=5.0,
                   slices=[(5, 1, 0)])
        chain.legs.append(fast)
        blame = attribute_chain(chain)
        assert blame.critical_leg == "n0#1"
        # the fast leg's 3.0 occupancy must not inflate service
        assert blame.buckets["service"] == pytest.approx(1.0)
        flags = {leg["leg"]: leg["critical"] for leg in blame.legs}
        assert flags == {"n0#1": True, "n0#2": False}
        _assert_balanced(blame)

    def test_leg_rows_read_the_chain(self):
        chain = _chain(retransmits=(5.0,), reorder_enter=8.5, reorder_release=8.8)
        chain.legs.append(
            Leg(key="n0#2", node="n0", packet_id=2, nic=None, packet_kind="rdv",
                bytes=7, send_t=None, recv_t=3.0)
        )
        blame = attribute_chain(chain)
        assert blame.critical is chain.legs[0]
        assert blame.to_dict()["critical_leg"] == "n0#1"
        assert blame.to_dict()["legs"] == [
            {"leg": "n0#1", "nic": "n0.mx00", "kind": "eager", "bytes": 100,
             "send_t": 4.0, "deliver_t": 9.0, "retransmits": 1,
             "reordered": True, "critical": True},
            {"leg": "n0#2", "nic": None, "kind": "rdv", "bytes": 7,
             "send_t": None, "deliver_t": 3.0, "retransmits": 0,
             "reordered": False, "critical": False},
        ]
        assert blame.legs == blame.to_dict()["legs"]

    def test_chain_with_no_legs_is_all_unattributed(self):
        chain = _chain()
        chain.legs = []
        blame = attribute_chain(chain)
        assert blame.buckets["unattributed"] == pytest.approx(blame.e2e)
        _assert_balanced(blame)

    @given(
        submit=st.floats(0, 1e3, allow_nan=False),
        queue=st.floats(0, 10, allow_nan=False),
        transit=st.floats(1e-9, 10, allow_nan=False),
        tail=st.floats(0, 10, allow_nan=False),
        occupancy=st.floats(0, 20, allow_nan=False),
        hold_frac=st.floats(0, 1),
        rdv_frac=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bucket_sums_equal_e2e_for_any_timeline(
        self, submit, queue, transit, tail, occupancy, hold_frac, rdv_frac
    ):
        """Hypothesis-enforced: attribution partitions e2e exactly."""
        send = submit + queue
        deliver = send + transit
        complete = deliver + tail
        blame = attribute_chain(
            _chain(
                submit=submit,
                send=send,
                deliver=deliver,
                complete=complete,
                occupancy=occupancy,
                rdv=[(submit, submit + rdv_frac * queue)],
            ),
            hold_windows={"n0": [(submit, submit + hold_frac * queue)]},
        )
        _assert_balanced(blame)

    @given(
        starts=st.lists(st.floats(-5, 20), max_size=4, unique=True),
        lengths=st.lists(st.floats(0, 6), min_size=4, max_size=4),
        open_last=st.booleans(),
        lo=st.floats(-5, 20),
        span=st.floats(0, 10),
    )
    def test_clipping_one_window_equals_the_merge(
        self, starts, lengths, open_last, lo, span
    ):
        """One window skips the merge; any count must equal merge + clip."""
        windows = [(s, s + n) for s, n in zip(sorted(starts), lengths)]
        if open_last and windows:
            windows[-1] = (windows[-1][0], None)
        hi = lo + span
        closed = [(s, e if e is not None else hi) for s, e in windows]
        assert _clipped(windows, lo, hi) == interval_overlap(
            merge_intervals(closed), lo, hi
        )


class TestEndToEndSim:
    @pytest.fixture(scope="class")
    def traced_run(self):
        scenario = {
            "name": "causal-e2e",
            "cluster": {"n_nodes": 3, "strategy": "aggregate", "seed": 3},
            "observability": {"trace": True},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 256,
                 "count": 40, "interval": 0.0},
                {"app": "stream", "src": "n1", "dst": "n2", "size": 65536,
                 "count": 4},
                {"app": "pingpong", "src": "n2", "dst": "n0", "size": 64,
                 "count": 10},
            ],
        }
        report, cluster, _ = run_scenario(scenario)
        return report, cluster

    def test_every_message_attributed_with_exact_sums(self, traced_run):
        report, cluster = traced_run
        causal = attribute_events(cluster.obs.events)
        assert len(causal.messages) == report.messages > 0
        assert causal.incomplete == 0
        for blame in causal.messages:
            _assert_balanced(blame)

    def test_unattributed_fraction_below_ten_percent(self, traced_run):
        _, cluster = traced_run
        causal = attribute_events(cluster.obs.events)
        for edge, slot in causal.edges().items():
            assert slot["fractions"]["unattributed"] < 0.10, edge

    def test_blame_metrics_exported(self, traced_run):
        _, cluster = traced_run
        text = cluster.obs.registry.to_prometheus()
        assert "repro_blame_seconds_total" in text
        assert "repro_blame_fraction" in text

    def test_summary_is_the_report_rolled_up(self, traced_run):
        """``tails["blame"]``, mid-run and post-run, is this one summary."""
        _, cluster = traced_run
        causal = attribute_events(cluster.obs.events)
        summary = causal.summary(slowest=3)
        assert summary == {
            "messages": len(causal.messages),
            "incomplete": causal.incomplete,
            "truncated": False,
            "edges": causal.edges(),
            "slowest": [b.to_dict() for b in causal.select(slowest=3)],
        }
        assert len(summary["slowest"]) == 3
        assert len(causal.summary()["slowest"]) == 5  # the default


def _blame_sums(registry):
    """``{edge: {bucket: seconds}}`` from the registry's blame counters."""
    sums: dict = {}
    for metric in registry:
        if metric.name == "repro_blame_seconds_total":
            labels = dict(metric.labels)
            sums.setdefault(labels["edge"], {})[labels["bucket"]] = metric.value
    return sums


class TestExportBlame:
    def _blame_events(self, mid, e2e, src="n0", dst="n1"):
        pid = 1000 + mid
        return [
            _event(0.0, f"engine:{src}", "collect.enqueue",
                   {"message": mid, "flow": "f", "dst": dst,
                    "bytes": 8, "fragments": 1}),
            _event(0.1, f"engine:{src}", "engine.dispatch",
                   {"packet": pid, "dst": dst, "packet_kind": "eager",
                    "bytes": 8, "messages": [[mid, 0, 8]]}),
            _event(e2e, f"rx:{dst}", "rx.deliver",
                   {"packet": pid, "src": src, "corr": None}),
            _event(e2e, f"reasm:{dst}", "message.complete",
                   {"message": mid, "flow": "f", "src": src}),
        ]

    def test_export_writes_registry_series(self):
        report = attribute_events(self._blame_events(1, 2.0))
        registry = MetricsRegistry()
        export_blame(report.edges(), registry)
        text = registry.to_prometheus()
        assert 'repro_blame_seconds_total{bucket="nic_queue",edge="n0->n1"}' in text
        assert "repro_blame_fraction" in text
        # fractions of one edge sum to 1
        fractions = report.edges()["n0->n1"]["fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_ring_overflow_blames_the_retained_window(self, tmp_path, capsys):
        """A flight recorder that evicted the start of the run attributes
        what it kept, and its exported trace says it is truncated."""
        _, cluster, _ = run_scenario({
            "name": "ring-overflow",
            "cluster": {"n_nodes": 2, "strategy": "eager", "seed": 0},
            "observability": {"ring_buffer": 64},
            "workloads": [{"app": "stream", "src": "n0", "dst": "n1",
                           "size": 512, "count": 30, "interval": 1e-4}],
        })
        plane = cluster.obs
        assert plane.sink.dropped > 0  # the ring really did evict
        registry = plane.registry  # the first read folds the kept window
        retained = attribute_events(plane.sink.events)
        assert 0 < len(retained.messages) < 30
        assert _blame_sums(registry) == {
            edge: slot["buckets_s"] for edge, slot in retained.edges().items()
        }
        for edge, slot in retained.edges().items():
            for bucket, fraction in slot["fractions"].items():
                gauge = registry.get(
                    "repro_blame_fraction", {"edge": edge, "bucket": bucket}
                )
                assert gauge.value == fraction
        for path in _truncated_traces(plane, tmp_path):
            why_main(argparse.Namespace(trace=str(path), message=None, slowest=1,
                                        edge=None, json=False))
            assert "TRUNCATED" in capsys.readouterr().err


class TestZeroEmission:
    def test_untraced_run_emits_nothing(self, monkeypatch):
        """Every span-boundary emit site sits behind ``tracer.enabled``."""
        calls = []

        def spy(self, event):
            calls.append(event[2])

        monkeypatch.setattr(Tracer, "emit", spy)
        monkeypatch.setattr(NullTracer, "emit", spy)
        scenario = {
            "name": "zero-emission",
            "cluster": {"n_nodes": 2, "strategy": "aggregate", "seed": 1},
            "faults": {"drop": 0.1, "seed": 2},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 256,
                 "count": 30, "interval": 0.0},
                {"app": "stream", "src": "n0", "dst": "n1", "size": 65536,
                 "count": 2},
            ],
        }
        run_scenario(scenario)
        assert calls == []

    def test_traced_run_emits_span_boundaries(self):
        scenario = {
            "name": "span-boundaries",
            "cluster": {
                "n_nodes": 2,
                "strategy": "nagle",
                "config": {"nagle_delay": 4e-6, "nagle_min_bytes": 1024},
                "seed": 1,
            },
            "faults": {"drop": 0.1, "seed": 2},
            "observability": {"trace": True},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 256,
                 "count": 30, "interval": 0.0},
                {"app": "stream", "src": "n0", "dst": "n1", "size": 65536,
                 "count": 2},
            ],
        }
        _, cluster, _ = run_scenario(scenario)
        kinds = {e[2] for e in cluster.obs.events}
        assert {"hold.arm", "hold.fire", "rel.retransmit"} <= kinds


class TestRendering:
    def test_waterfall_mentions_every_nonzero_bucket(self):
        blame = attribute_chain(_chain(rdv=[(0.0, 2.0)]))
        text = render_waterfall(blame)
        assert "rdv" in text and "nic_queue" in text and "unattributed" in text
        assert "n0#m5" in text
        assert "*leg n0#1" in text

    def test_report_edge_filter_accepts_colon_form(self):
        report = attribute_events([])
        report.messages.append(attribute_chain(_chain()))
        text = render_report(report, report.select(edge="n0:n1"))
        assert "n0->n1" in text
        assert "no attributed message" not in text


class TestWhyCli:
    def _args(self, trace, **over):
        base = dict(trace=str(trace), message=None, slowest=5,
                    edge=None, json=False)
        base.update(over)
        return argparse.Namespace(**base)

    @pytest.fixture()
    def trace_file(self, tmp_path):
        scenario = {
            "name": "why-cli",
            "cluster": {"n_nodes": 2, "strategy": "aggregate", "seed": 5},
            "observability": {"trace": True},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 512,
                 "count": 10, "interval": 0.0}
            ],
        }
        _, cluster, _ = run_scenario(scenario)
        path = tmp_path / "trace.jsonl"
        cluster.obs.write_trace(path)
        return path

    def test_human_report(self, trace_file, capsys):
        assert why_main(self._args(trace_file)) == 0
        out = capsys.readouterr().out
        assert "causal attribution" in out
        assert "per-edge blame fractions" in out

    def test_json_bucket_sums(self, trace_file, capsys):
        assert why_main(self._args(trace_file, json=True)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"]
        for msg in payload["messages"]:
            total = sum(msg["buckets_s"].values())
            assert math.isclose(total, msg["e2e_s"], rel_tol=1e-9,
                                abs_tol=1e-12)
            assert msg["buckets_s"]["unattributed"] <= 0.10 * msg["e2e_s"]

    def test_single_message_lookup(self, trace_file, capsys):
        assert why_main(self._args(trace_file, json=True)) == 0
        payload = json.loads(capsys.readouterr().out)
        key = payload["messages"][0]["message"]
        assert why_main(self._args(trace_file, message=key)) == 0
        out = capsys.readouterr().out
        assert f"message {key}" in out

    @pytest.fixture()
    def two_way_trace(self, tmp_path):
        """Slow n0->n1 messages and fast n1->n0 ones."""
        scenario = {
            "name": "why-two-way",
            "cluster": {"n_nodes": 2, "strategy": "aggregate", "seed": 5},
            "observability": {"trace": True},
            "workloads": [
                {"app": "stream", "src": "n0", "dst": "n1", "size": 8192,
                 "count": 10, "interval": 0.0},
                {"app": "stream", "src": "n1", "dst": "n0", "size": 64,
                 "count": 10, "interval": 0.0},
            ],
        }
        _, cluster, _ = run_scenario(scenario)
        path = tmp_path / "trace.jsonl"
        cluster.obs.write_trace(path)
        return path

    @pytest.mark.parametrize("pick", ["message", "edge"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_text_and_json_show_the_same_selection(
        self, two_way_trace, capsys, as_json, pick
    ):
        """``--message`` and ``--edge`` pick the same messages for the
        text waterfalls and the ``--json`` rows."""
        report = analyze_file(two_way_trace).report
        back = report.select(slowest=3, edge="n1->n0")
        assert len(back) == 3
        assert report.select(slowest=1)[0].edge == "n0->n1"  # the slow way
        if pick == "message":
            over, expected = {"message": back[1].key}, [back[1]]
        else:
            over, expected = {"edge": "n1:n0", "slowest": 3}, back
        assert why_main(self._args(two_way_trace, json=as_json, **over)) == 0
        out = capsys.readouterr().out
        if as_json:
            shown = [(m["message"], m["edge"]) for m in json.loads(out)["messages"]]
        else:
            shown = re.findall(r"^message (\S+)  flow=\S+  (\S+)", out, re.M)
        assert shown == [(b.key, "n1->n0") for b in expected]

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert why_main(self._args(empty)) == 1

    def test_truncated_trace_warns_loudly(self, tmp_path, capsys):
        from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
        from repro.runtime.cluster import Cluster

        plane = ObservabilityPlane(ObservabilityConfig(ring_buffer=64))
        cluster = Cluster(seed=0, strategy="eager")
        plane.install(cluster)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(30):
            api.send(flow, 512)
        cluster.run_until_idle()
        assert plane.sink.dropped > 0
        for path in _truncated_traces(plane, tmp_path):
            why_main(self._args(path))
            captured = capsys.readouterr()
            assert "TRUNCATED" in captured.out or "TRUNCATED" in captured.err
            assert "evicted" in captured.err
            assert f"{plane.sink.dropped} event(s) of {plane.sink.seen}" in captured.err


# ----------------------------------------------------------------------
# blame is attributed once, when the registry is first read after the
# run, at a cost per event that does not grow with the length of the run
# ----------------------------------------------------------------------
class TestFinalizeEqualsOffline:
    def test_registry_blame_equals_full_trace_attribution(self):
        """The first registry read after ``finalize`` replays the plane's
        own sink through the one offline pass: its registry series are
        that pass's sums, to the last digit."""
        scenario = json.loads(
            (EXAMPLES / "scenario_mixed.json").read_text(encoding="utf-8")
        )
        scenario["observability"] = {"trace": True}
        _, cluster, _ = run_scenario(scenario)
        plane = cluster.obs
        offline = attribute_events(plane.events).edges()
        assert len(offline) >= 8
        assert _blame_sums(plane.registry) == {
            edge: slot["buckets_s"] for edge, slot in offline.items()
        }
        for edge, slot in offline.items():
            for bucket, fraction in slot["fractions"].items():
                gauge = plane.registry.get(
                    "repro_blame_fraction", {"edge": edge, "bucket": bucket}
                )
                assert gauge.value == fraction
        assert any(slot["buckets_s"]["hold"] > 0 for slot in offline.values())


class TestBlameOnFirstRead:
    def test_a_session_folds_nothing_and_the_reads_fold_once(self, monkeypatch):
        import repro.obs.analyze as analyze

        folds = []
        fold = analyze.analyze_events

        def counted(events):
            folds.append(len(events))
            return fold(events)

        monkeypatch.setattr(analyze, "analyze_events", counted)
        scenario = json.loads(
            (EXAMPLES / "scenario_mixed.json").read_text(encoding="utf-8")
        )
        scenario["observability"] = {"trace": True}
        _, cluster, _ = run_scenario(scenario)
        assert folds == []
        first, second = cluster.obs.registry, cluster.obs.registry
        assert first is second
        assert folds == [len(cluster.obs.sink.events)]
        assert _blame_sums(first)


class _ObsOpcodes:
    """Bytecodes executed in ``repro.obs`` + the tracer while active
    (``sys.settrace`` with per-opcode events: exact, repeats run to run)."""

    def __init__(self) -> None:
        self.ops = 0

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.ops += 1
        return self._local

    def _on_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if f"repro{os.sep}obs{os.sep}" not in filename and not filename.endswith(
            f"util{os.sep}tracing.py"
        ):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._local

    def __enter__(self) -> "_ObsOpcodes":
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def _ops_per_event(holds: int) -> float:
    """Plane-side cost of a run with ``holds`` Nagle holds on one node,
    four messages in flight at any time: recording during the run plus
    the one attribution pass over the recorded trace after it."""
    tracer = Tracer()
    sink = ListSink()
    tracer.subscribe(sink)

    def message(i: int):
        t = i * 1e-4
        yield t, "engine:n0", "collect.enqueue", dict(
            message=i, flow="f", dst="n1", bytes=64, fragments=1)
        yield t + 1e-5, "engine:n0", "hold.arm", dict(wake_at=t + 3e-5, backlog=1)
        yield t + 3e-5, "engine:n0", "hold.fire", {}
        yield t + 3e-5, "engine:n0", "engine.dispatch", dict(
            packet=i, dst="n1", packet_kind="eager", bytes=64,
            messages=[(i, 0, 64)])
        yield t + 3e-5, "nic:n0.mx00", "nic.send", dict(packet=i, occupancy=1e-6)
        yield t + 4e-5, "nic:n0.mx00", "nic.idle", {}
        # delivery lags four messages behind submission
        yield t + 4.1e-4, "rx:n1", "rx.deliver", dict(packet=i, src="n0", corr=None)
        yield t + 4.1e-4, "reasm:n1", "message.complete", dict(
            message=i, flow="f", src="n0", submit_time=t)

    events = sorted(
        (_event(*event) for i in range(holds) for event in message(i)),
        key=lambda event: event[0],
    )
    with _ObsOpcodes() as counter:
        for event in events:
            tracer.emit(event)
        report = attribute_events(sink.events)
    assert len(sink) == len(events)
    assert len(report.messages) == holds and report.incomplete == 0
    return counter.ops / len(events)


class TestCostDoesNotGrowWithTheRun:
    def test_obs_bytecodes_per_event_flat_from_200_to_2000_holds(self):
        short, long = _ops_per_event(200), _ops_per_event(2000)
        assert long <= short * 1.10, (short, long)
