"""The observability plane (see docs/ARCHITECTURE.md §5).

Turns the per-component :class:`~repro.util.tracing.Tracer` hook into a
full observability subsystem: a metrics registry with Prometheus text
export, a periodic time-series sampler, decision-explainability
records from the optimizer, a bounded flight-recorder capture mode, and
a post-run analysis CLI over JSON Lines traces, the one format read
back (a Chrome trace is a write-only export for https://ui.perfetto.dev).

Quick use::

    from repro.obs.plane import ObservabilityConfig, ObservabilityPlane

    plane = ObservabilityPlane(ObservabilityConfig(sample_interval=1e-5))
    cluster = Cluster(...)
    plane.install(cluster)
    cluster.run_until_idle()
    plane.finalize()                     # mirror end-of-run counters
    time, source, kind, *fields = plane.events[0]   # detail_of() names them
    plane.write_trace("trace.jsonl")     # what `repro obs` reads back
    plane.write_metrics("metrics.prom")  # first registry read folds blame

or declaratively via a scenario's ``"observability"`` block and the
``python -m repro run … --trace-out/--metrics-out`` flags.  The package
re-exports nothing: import from the module that defines a name.

For *distributed* (multi-process live) runs the plane extends across
peers: the coordinator merges the per-peer trace streams
(:func:`repro.obs.export.merge_events`; one host, one clock: nothing is
shifted) and registries (:meth:`repro.obs.metrics.MetricsRegistry.merge`),
:mod:`repro.obs.serve` exposes the cluster registry and its views over
the standard library's HTTP server during the run (``/tails["blame"]``
is the mid-run blame view), and :mod:`repro.obs.diff` gates two runs
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
