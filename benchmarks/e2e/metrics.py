"""Metric names, units and directions, and the statistics over blocks.

``BENCHMARK.json`` carries the same names; ``test_e2e_smoke.py`` checks
that the two agree, so a metric is renamed in both places or in neither.
"""

from __future__ import annotations

import statistics

from layers import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "median_iqr", "percentile"]

#: (name, unit, better) — reported by every workload with --trace 0; the
#: regression bounds are fixed in BENCHMARK.json.
END_TO_END = (
    ("msgs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Guard metrics that exist on one plane only (exact counts, simulated
#: latency, round-trip times), so they cannot sit in END_TO_END: every
#: workload must report every end-to-end metric.  Their bounds are in the
#: workload specs and ``aa.py`` applies them.
_GUARDS = (
    ("py_ops_per_msg", "count", "lower"),
    ("sim_latency_us", "us", "lower"),
    ("rtt_p50_us", "us", "lower"),
    ("rtt_p90_us", "us", "lower"),
)

_WORK = (
    ("core.dispatches_per_msg", "count", "lower"),
    ("core.activations_per_dispatch", "count", "lower"),
    ("core.make_plan_calls_per_dispatch", "count", "lower"),
    ("core.service_order_calls_per_dispatch", "count", "lower"),
    ("core.candidates_per_decision", "count", "lower"),
    ("core.agg_ratio", "count", "higher"),
    ("core.holds_per_msg", "count", "lower"),
    ("core.rdv_per_msg", "count", "lower"),
    ("core.backlog_at_decision", "count", "higher"),
    ("network.packets_per_msg", "count", "lower"),
    ("sim.events_per_msg", "count", "lower"),
    ("obs.events_per_msg", "count", "lower"),
    ("obs.ops_per_event", "count", "lower"),
    ("runtime.build_ms", "ms", "lower"),
    ("runtime.report_ms", "ms", "lower"),
)

_LIVE = (
    ("live.rtt_min_us", "us", "lower"),
    ("live.rtt_p99_us", "us", "lower"),
    ("live.mb_per_s", "MB/s", "higher"),
    ("live.agg_ratio", "count", "higher"),
    ("live.packets_per_msg", "count", "lower"),
    ("live.peer_cpu_us_per_msg", "us", "lower"),
    ("live.retransmits", "count", "lower"),
    ("live.traced_rtt_p50_us", "us", "lower"),
    *((f"live.blame.{b}_us", "us", "lower")
      for b in ("hold", "nic_queue", "service", "wire", "reorder", "unattributed")),
)

_HARNESS = (
    ("bench.raw_msgs_per_s", "1/s", "higher"),
    ("bench.raw_iqr_frac", "ratio", "lower"),
    ("bench.corrected_iqr_frac", "ratio", "lower"),
    ("bench.host_slowdown", "ratio", "lower"),
    ("bench.stolen_frac", "ratio", "lower"),
    ("bench.trace_overhead_x", "ratio", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
    ("bench.segments", "count", "higher"),
)

#: (name, unit, better) — reported by every workload with --trace 1; a
#: metric that does not exist on the workload's plane reads 0.
PER_LAYER = (
    *_GUARDS,
    *((f"{layer}.ops_per_msg", "count", "lower") for layer in LAYERS),
    *((f"{layer}.calls_per_msg", "count", "lower") for layer in LAYERS),
    *((f"{layer}.self_us_per_msg", "us", "lower") for layer in LAYERS),
    *_WORK,
    *_LIVE,
    *_HARNESS,
)


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile range as a share of it."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]
