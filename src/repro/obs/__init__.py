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

Everything the plane reports about a run — per-edge one-way latency,
its SLO verdicts, per-rail service time and causal blame — is computed
once, exactly, after the run by one fold over the (aligned) trace,
:func:`repro.obs.analyze.analyze_events`.  The plane keeps no online
quantile state and nothing in it steers dispatch: the rail tails the
rail order acts on are the NICs' own windows
(:attr:`repro.network.nic.NIC.service_us`).
"""

from repro.obs.causal import (
    BLAME_BUCKETS,
    CausalReport,
    MessageBlame,
    attribute_chain,
    attribute_events,
    render_waterfall,
)
from repro.obs.export import load_events, to_chrome_trace, write_trace
from repro.obs.merge import (
    Crossing,
    MergedTrace,
    OffsetSample,
    align_events,
    estimate_offsets,
    extract_crossings,
    merge_registries,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.obs.sampler import ObservabilitySampler
from repro.obs.serve import ObsHTTPServer, parse_serve_address
from repro.obs.spans import Leg, MessageChain
from repro.obs.tails import (
    SLObjective,
    SLOStatus,
    TailStats,
    evaluate_slo_offline,
    parse_slo,
)

__all__ = [
    "BLAME_BUCKETS",
    "CausalReport",
    "Counter",
    "Crossing",
    "Gauge",
    "Leg",
    "ListSink",
    "MergedTrace",
    "MessageBlame",
    "MessageChain",
    "MetricsRegistry",
    "ObsHTTPServer",
    "ObservabilityConfig",
    "ObservabilityPlane",
    "ObservabilitySampler",
    "OffsetSample",
    "RingBufferSink",
    "SLObjective",
    "SLOStatus",
    "TailStats",
    "align_events",
    "attribute_chain",
    "attribute_events",
    "estimate_offsets",
    "evaluate_slo_offline",
    "extract_crossings",
    "load_events",
    "merge_registries",
    "parse_serve_address",
    "parse_slo",
    "render_waterfall",
    "to_chrome_trace",
    "truncation_marker",
    "write_trace",
]
