"""Property tests for the cross-peer merge operations.

The merges (:meth:`repro.obs.metrics.MetricsRegistry.merge`,
:func:`repro.obs.export.merge_events`) are pure data-plumbing with
algebraic contracts, so they get algebraic tests:

* relabeling must keep every peer's series apart;
* the trace merge must be exactly the union of the peer streams, each
  peer's internal event order kept, every timestamp as recorded.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import merge_events
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError


def _counter_registry(values: dict[str, int]) -> MetricsRegistry:
    reg = MetricsRegistry()
    for node, value in values.items():
        reg.counter("repro_x_total", {"node": node}).inc(value)
    return reg


class TestRelabelMerge:
    def test_peer_label_disambiguates_identical_series(self):
        per_peer = {
            "n0": _counter_registry({"n0": 5}),
            "n1": _counter_registry({"n0": 7}),
        }
        cluster = MetricsRegistry.merge(per_peer)
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n0"}).value == 5
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n1"}).value == 7

    def test_accepts_snapshots(self):
        cluster = MetricsRegistry.merge({"n0": _counter_registry({"n0": 2}).to_snapshot()})
        assert cluster.get("repro_x_total", {"node": "n0", "peer": "n0"}).value == 2

    def test_reserved_peer_label_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", {"peer": "oops"}).inc()
        with pytest.raises(ConfigurationError):
            MetricsRegistry.merge({"n0": reg})


_per_peer_times = st.dictionaries(
    st.sampled_from(["n0", "n1", "n2"]),
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=25,
    ),
    max_size=3,
)


class TestAlignment:
    @given(times=_per_peer_times)
    @settings(max_examples=80, deadline=None)
    def test_per_peer_order_preserved(self, times):
        events_by_peer = {
            peer: [
                (t, f"engine:{peer}", "optimizer.activate", "submit", i)
                for i, t in enumerate(sorted(ts))
            ]
            for peer, ts in times.items()
        }
        merged = merge_events(events_by_peer)
        # Exactly the multiset union of the peer streams: the recorded
        # events themselves, so nothing is shifted or rewritten.
        assert Counter(map(id, merged)) == Counter(
            id(event) for events in events_by_peer.values() for event in events
        )
        for peer, events in events_by_peer.items():
            assert [e for e in merged if e[1] == f"engine:{peer}"] == events
        assert merged == sorted(merged, key=lambda e: e[0])


class TestDegenerateMerges:
    """A single peer's stream passes through untouched."""

    def test_single_peer_merge_passes_events_through(self):
        events = {
            "n0": [
                (float(i), "engine:n0", "optimizer.activate", "submit", i)
                for i in range(5)
            ]
        }
        assert merge_events(events) == events["n0"]
