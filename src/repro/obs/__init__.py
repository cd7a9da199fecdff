"""The observability plane (see docs/ARCHITECTURE.md §5).

Turns the per-component :class:`~repro.util.tracing.Tracer` hook into a
full observability subsystem: a metrics registry with Prometheus text
export, a periodic time-series sampler, decision-explainability
records from the optimizer, a bounded flight-recorder capture mode, and
a post-run analysis CLI over JSON Lines traces, the one format read
back (a Chrome trace is a write-only export for https://ui.perfetto.dev).

Quick use::

    from repro.obs import ObservabilityConfig, ObservabilityPlane

    plane = ObservabilityPlane(ObservabilityConfig(sample_interval=1e-5))
    cluster = Cluster(...)
    plane.install(cluster)
    cluster.run_until_idle()
    plane.finalize()                     # mirror end-of-run counters
    time, source, kind, *fields = plane.events[0]   # detail_of() names them
    plane.write_trace("trace.jsonl")     # what `repro obs` reads back
    plane.write_metrics("metrics.prom")  # first registry read folds blame

or declaratively via a scenario's ``"observability"`` block and the
``python -m repro run … --trace-out/--metrics-out`` flags.

For *distributed* (multi-process live) runs the plane extends across
peers: :mod:`repro.obs.merge` merges the per-peer trace streams (one
host, one clock: nothing is shifted) and registries, :mod:`repro.obs.serve` exposes the cluster
registry and its views over HTTP during the run (``/tails["blame"]`` is
the mid-run blame view), and :mod:`repro.obs.diff` gates two runs
against each other (``python -m repro obs diff A B --check``).

Everything the plane reports about a run — per-edge one-way latency,
its SLO verdicts, per-rail service time and causal blame — is computed
once, exactly, after the run by one fold over the (merged) trace,
:func:`repro.obs.analyze.analyze_events`, when someone reads it: a
simulated plane's blame is attributed when the registry is first read.
The plane keeps no online quantile state and nothing in it steers
dispatch: the rail tails the rail order acts on are the NICs' own
windows (:attr:`repro.network.nic.NIC.service_us`).
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
from repro.obs.merge import merge_events, merge_registries
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.obs.sampler import ObservabilitySampler
from repro.obs.serve import ObsHTTPServer, parse_serve_address
from repro.obs.spans import Leg, MessageChain
from repro.obs.tails import SLObjective, SLOStatus, evaluate_slo_offline

__all__ = [
    "BLAME_BUCKETS",
    "CausalReport",
    "Counter",
    "Gauge",
    "Leg",
    "ListSink",
    "MessageBlame",
    "MessageChain",
    "MetricsRegistry",
    "ObsHTTPServer",
    "ObservabilityConfig",
    "ObservabilityPlane",
    "ObservabilitySampler",
    "RingBufferSink",
    "SLObjective",
    "SLOStatus",
    "attribute_chain",
    "attribute_events",
    "evaluate_slo_offline",
    "load_events",
    "merge_events",
    "merge_registries",
    "parse_serve_address",
    "render_waterfall",
    "to_chrome_trace",
    "truncation_marker",
    "write_trace",
]
