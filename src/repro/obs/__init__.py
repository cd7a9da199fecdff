"""The observability plane (see docs/ARCHITECTURE.md §11).

Turns the per-component :class:`~repro.util.tracing.Tracer` hook into a
full observability subsystem: a metrics registry with Prometheus text
export, a periodic time-series sampler, decision-explainability
records from the optimizer, Chrome-trace/JSONL exporters (open the
result in https://ui.perfetto.dev), a bounded flight-recorder capture
mode, and a post-run analysis CLI.

Quick use::

    from repro.obs import ObservabilityConfig, ObservabilityPlane

    plane = ObservabilityPlane(ObservabilityConfig(sample_interval=1e-5))
    cluster = Cluster(...)
    plane.install(cluster)
    cluster.run_until_idle()
    plane.finalize()
    plane.write_trace("trace.json")      # Chrome/Perfetto format
    plane.write_metrics("metrics.prom")  # Prometheus text exposition

or declaratively via a scenario's ``"observability"`` block and the
``python -m repro run … --trace-out/--metrics-out`` flags.

For *distributed* (multi-process live) runs the plane extends across
peers: :mod:`repro.obs.merge` aligns per-peer clocks and merges trace
streams and registries, :mod:`repro.obs.serve` exposes the cluster
registry over HTTP during the run, and :mod:`repro.obs.diff` gates two
runs against each other (``python -m repro obs diff A B --check``).
"""

from repro.obs.causal import (
    BLAME_BUCKETS,
    CausalReport,
    MessageBlame,
    TailExemplars,
    attribute_chain,
    attribute_events,
    render_waterfall,
)
from repro.obs.export import load_events, to_chrome_trace, write_trace
from repro.obs.merge import (
    Crossing,
    MergedTrace,
    OffsetSample,
    aggregate_registries,
    align_events,
    correct_edge_sketches,
    estimate_offsets,
    extract_crossings,
    merge_histograms,
    merge_registries,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.obs.sampler import ObservabilitySampler, ObsSample
from repro.obs.serve import ObsHTTPServer, parse_serve_address
from repro.obs.spans import Leg, MessageChain, SpanCollector
from repro.obs.tails import (
    SLObjective,
    SLOStatus,
    TailRecorder,
    TailStats,
    TailView,
    evaluate_slo,
    evaluate_slo_offline,
    parse_slo,
    pooled_message_sketch,
)

__all__ = [
    "BLAME_BUCKETS",
    "CausalReport",
    "Counter",
    "Crossing",
    "Gauge",
    "Histogram",
    "Leg",
    "ListSink",
    "MergedTrace",
    "MessageBlame",
    "MessageChain",
    "MetricsRegistry",
    "ObsHTTPServer",
    "ObsSample",
    "ObservabilityConfig",
    "ObservabilityPlane",
    "ObservabilitySampler",
    "OffsetSample",
    "QuantileSketch",
    "RingBufferSink",
    "SLObjective",
    "SLOStatus",
    "SpanCollector",
    "TailExemplars",
    "TailRecorder",
    "TailStats",
    "TailView",
    "aggregate_registries",
    "align_events",
    "attribute_chain",
    "attribute_events",
    "correct_edge_sketches",
    "estimate_offsets",
    "evaluate_slo",
    "evaluate_slo_offline",
    "extract_crossings",
    "load_events",
    "merge_histograms",
    "merge_registries",
    "parse_serve_address",
    "parse_slo",
    "pooled_message_sketch",
    "render_waterfall",
    "to_chrome_trace",
    "truncation_marker",
    "write_trace",
]
