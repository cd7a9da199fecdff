"""Property tests for the cross-peer merge operations.

The merge layer (:mod:`repro.obs.merge`) is pure data-plumbing with
algebraic contracts, so it gets algebraic tests:

* counter aggregation must be associative and commutative;
* clock-offset alignment must preserve each peer's internal event order
  no matter the offsets;
* offset estimation must recover an exact skew from noise-free probes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.merge import (
    OffsetSample,
    aggregate_registries,
    align_events,
    correct_edge_sketches,
    estimate_offsets,
    extract_crossings,
    merge_registries,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

# Positive latencies spanning the orders of magnitude a sketch sees.
_observations = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    max_size=40,
)


def _counter_registry(values: dict[str, int]) -> MetricsRegistry:
    reg = MetricsRegistry()
    for node, value in values.items():
        reg.counter("repro_x_total", {"node": node}).inc(value)
    return reg


_counter_values = st.dictionaries(
    st.sampled_from(["n0", "n1", "n2"]),
    st.integers(min_value=0, max_value=10**9),
    max_size=3,
)


def _totals(reg: MetricsRegistry) -> dict:
    return {
        (e["name"], tuple(sorted(map(tuple, e["labels"])))): e["value"]
        for e in reg.to_snapshot()["metrics"]
    }


class TestCounterAggregation:
    @given(a=_counter_values, b=_counter_values)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        ab = aggregate_registries([_counter_registry(a), _counter_registry(b)])
        ba = aggregate_registries([_counter_registry(b), _counter_registry(a)])
        assert _totals(ab) == _totals(ba)

    @given(a=_counter_values, b=_counter_values, c=_counter_values)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        regs = [_counter_registry(v) for v in (a, b, c)]
        left = aggregate_registries(
            [aggregate_registries(regs[:2]), regs[2]]
        )
        flat = aggregate_registries(regs)
        assert _totals(left) == _totals(flat)

    def test_sums_values(self):
        out = aggregate_registries(
            [_counter_registry({"n0": 3}), _counter_registry({"n0": 4})]
        )
        assert out.get("repro_x_total", {"node": "n0"}).value == 7


class TestRelabelMerge:
    def test_peer_label_disambiguates_identical_series(self):
        per_peer = {
            "n0": _counter_registry({"n0": 5}),
            "n1": _counter_registry({"n0": 7}),
        }
        cluster = merge_registries(per_peer)
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n0"}).value == 5
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n1"}).value == 7

    def test_accepts_snapshots(self):
        cluster = merge_registries({"n0": _counter_registry({"n0": 2}).to_snapshot()})
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n0"}).value == 2

    def test_reserved_peer_label_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", {"peer": "oops"}).inc()
        with pytest.raises(ConfigurationError):
            merge_registries({"n0": reg})


def _sketch_registry(samples, *, labels=None):
    from repro.obs.tails import EDGE_METRIC

    reg = MetricsRegistry()
    sketch = reg.sketch(
        EDGE_METRIC, labels or {"src": "n0", "dst": "n1"}, k=32
    )
    for value in samples:
        sketch.observe(value)
    return reg


class TestSketchAggregation:
    @given(a=_observations, b=_observations)
    @settings(max_examples=40, deadline=None)
    def test_levelwise_merge_equals_pooled_stream(self, a, b):
        from repro.obs.tails import EDGE_METRIC

        out = aggregate_registries(
            [_sketch_registry(a), _sketch_registry(b).to_snapshot()]
        )
        merged = out.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert merged.count == len(a) + len(b)
        pooled = sorted(a + b)
        if pooled:
            bound = merged.rank_error_bound() + 1.0 / len(pooled)
            answer = merged.quantile(0.5)
            rank = sum(1 for v in pooled if v <= answer) / len(pooled)
            rank_lo = sum(1 for v in pooled if v < answer) / len(pooled)
            assert rank_lo - bound <= 0.5 <= rank + bound

    def test_kind_collision_rejected(self):
        from repro.obs.tails import EDGE_METRIC

        gauge_reg = MetricsRegistry()
        gauge_reg.gauge(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        with pytest.raises(ConfigurationError):
            aggregate_registries([_sketch_registry([1.0]), gauge_reg])


class TestOffsetCorrection:
    def test_shifts_each_edge_by_its_offset_delta(self):
        from repro.obs.tails import EDGE_METRIC

        reg = _sketch_registry([100.0, 200.0, 300.0])
        # n0's clock runs 50us ahead of the timeline, n1 10us: true
        # latency adds (off_src - off_dst) = +40us to every raw sample.
        corrected = correct_edge_sketches(reg, {"n0": 50e-6, "n1": 10e-6})
        assert corrected == 1
        sketch = reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert sketch.minimum == pytest.approx(140.0)
        assert sketch.maximum == pytest.approx(340.0)
        assert sketch.total == pytest.approx(100 + 200 + 300 + 3 * 40)

    def test_negative_correction_clamps_at_zero(self):
        from repro.obs.tails import EDGE_METRIC

        reg = _sketch_registry([5.0, 100.0])
        correct_edge_sketches(reg, {"n0": -50e-6, "n1": 0.0})
        sketch = reg.get(EDGE_METRIC, {"src": "n0", "dst": "n1"})
        assert sketch.minimum == 0.0  # 5 - 50 clamps
        assert sketch.maximum == pytest.approx(50.0)

    def test_non_edge_sketches_untouched(self):
        from repro.obs.tails import RAIL_METRIC

        reg = MetricsRegistry()
        rail = reg.sketch(RAIL_METRIC, {"nic": "n0.mx"})
        rail.observe(10.0)
        assert correct_edge_sketches(reg, {"n0": 1.0}) == 0
        assert rail.minimum == 10.0

    def test_unknown_peers_default_to_zero(self):
        reg = _sketch_registry([10.0])
        assert correct_edge_sketches(reg, {}) == 1
        from repro.obs.tails import EDGE_METRIC

        assert reg.get(
            EDGE_METRIC, {"src": "n0", "dst": "n1"}
        ).minimum == 10.0


_per_peer_times = st.dictionaries(
    st.sampled_from(["n0", "n1", "n2"]),
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=25,
    ),
    max_size=3,
)
_offsets = st.dictionaries(
    st.sampled_from(["n0", "n1", "n2"]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    max_size=3,
)


class TestAlignment:
    @given(times=_per_peer_times, offsets=_offsets)
    @settings(max_examples=80, deadline=None)
    def test_per_peer_order_preserved(self, times, offsets):
        events_by_peer = {
            peer: [
                TraceEvent(t, f"src:{peer}", "tick", {"seq": i})
                for i, t in enumerate(sorted(ts))
            ]
            for peer, ts in times.items()
        }
        merged = align_events(events_by_peer, offsets)
        assert len(merged.events) == sum(len(v) for v in events_by_peer.values())
        for peer in events_by_peer:
            seqs = [
                e.detail["seq"]
                for e in merged.events
                if e.source == f"src:{peer}"
            ]
            assert seqs == sorted(seqs)
        assert merged.events == sorted(merged.events, key=lambda e: e.time)

    def test_recv_send_time_rewritten_and_clamped(self):
        events = {
            "n1": [
                TraceEvent(10.0, "peer:n1", "live.recv",
                           {"corr": "n0#1", "src": "n0", "sent_at": 9.0}),
                TraceEvent(11.0, "peer:n1", "live.recv",
                           {"corr": "n0#2", "src": "n0", "sent_at": 50.0}),
            ]
        }
        merged = align_events(events, {"n0": 0.0, "n1": 0.0})
        ok, clamped = merged.events
        assert ok.detail["send_time"] == 9.0
        assert clamped.detail["send_time"] == clamped.time  # clamped down
        assert merged.crossings_clamped == 1


class TestOffsetEstimation:
    @given(
        skew=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        rtt=st.floats(min_value=1e-6, max_value=0.01, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_exact_skew_from_symmetric_probes(self, skew, rtt):
        # Peer clock = true time + skew; probe replies land mid-RTT.
        samples = [
            OffsetSample(peer="n1", t0=t, t1=t + rtt,
                         peer_now=t + rtt / 2 + skew)
            for t in (0.0, 1.0, 2.0)
        ]
        offsets = estimate_offsets(samples, peers=["n0", "n1"])
        assert offsets["n0"] == 0.0
        assert math.isclose(offsets["n1"], skew, rel_tol=0, abs_tol=1e-9)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_offsets([OffsetSample("n1", 1.0, 0.5, 1.0)])

    def test_crossing_refinement_reduces_latency_asymmetry(self):
        # n1 runs 10 ms ahead; probes are asymmetric (reply path slower)
        # so the midpoint estimate alone is biased.
        skew = 0.010
        samples = [
            OffsetSample("n1", t0=t, t1=t + 0.004, peer_now=t + 0.003 + skew)
            for t in (0.0, 0.5)
        ]
        biased = estimate_offsets(samples, peers=["n0", "n1"])["n1"]
        # True one-way latency 1 ms each direction.
        events = {
            "n0": [
                TraceEvent(t + 0.001, "peer:n0", "live.recv",
                           {"corr": f"n1#{i}", "src": "n1",
                            "sent_at": t + skew})
                for i, t in enumerate((1.0, 1.1))
            ],
            "n1": [
                TraceEvent(t + 0.001 + skew, "peer:n1", "live.recv",
                           {"corr": f"n0#{i}", "src": "n0", "sent_at": t})
                for i, t in enumerate((1.2, 1.3))
            ],
        }
        crossings = extract_crossings(events)
        refined = estimate_offsets(samples, crossings, peers=["n0", "n1"])["n1"]
        assert abs(refined - skew) < abs(biased - skew)


class TestDegenerateMerges:
    """Single peers, missing offsets, and skew signs that could go wrong."""

    def test_single_peer_merge_passes_events_through(self):
        events = {
            "n0": [
                TraceEvent(float(i), "peer:n0", "tick", {"seq": i})
                for i in range(5)
            ]
        }
        merged = align_events(events, estimate_offsets([], peers=["n0"]))
        assert [e.time for e in merged.events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert merged.events_by_peer == {"n0": 5}
        assert merged.crossings_clamped == 0

    def test_peer_without_offset_estimate_defaults_to_zero(self):
        # n1 sent no probes and produced no crossings: its events must
        # still merge, at face value, rather than being dropped.
        offsets = estimate_offsets(
            [OffsetSample("n2", 0.0, 0.002, 0.001)], peers=["n0", "n1", "n2"]
        )
        assert offsets["n1"] == 0.0
        events = {
            "n1": [TraceEvent(3.5, "peer:n1", "tick", {})],
            "n2": [TraceEvent(4.0, "peer:n2", "tick", {})],
        }
        merged = align_events(events, offsets)
        times = {e.source: e.time for e in merged.events}
        assert times["peer:n1"] == 3.5
        assert times["peer:n2"] == pytest.approx(4.0 - offsets["n2"])

    @given(offset=st.floats(min_value=-5.0, max_value=-1e-9, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_negative_offset_never_yields_negative_durations(self, offset):
        # A peer whose clock runs *behind* the coordinator gets a
        # negative offset; the correction shifts its events forward.
        # No aligned wire crossing may end before it started.
        events = {
            "n1": [
                TraceEvent(10.0, "peer:n1", "live.recv",
                           {"corr": "n0#1", "src": "n0", "sent_at": 9.9}),
                TraceEvent(10.5, "peer:n1", "live.recv",
                           {"corr": "n0#2", "src": "n0", "sent_at": 10.4}),
            ]
        }
        merged = align_events(events, {"n0": 0.0, "n1": offset})
        assert len(merged.events) == 2
        for event in merged.events:
            duration = event.time - event.detail["send_time"]
            assert duration >= 0.0
        # per-peer spacing is offset-invariant
        a, b = merged.events
        assert b.time - a.time == pytest.approx(0.5)
