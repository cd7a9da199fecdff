"""The observability plane: config, lifecycle, and export glue.

An :class:`ObservabilityPlane` bundles the three capture mechanisms —

* a trace sink (unbounded :class:`~repro.obs.recorder.ListSink`, or a
  bounded :class:`~repro.obs.recorder.RingBufferSink` flight recorder),
* a :class:`~repro.obs.metrics.MetricsRegistry`,
* an optional :class:`~repro.obs.sampler.ObservabilitySampler` —

and attaches them to a cluster by *subscribing* to the tracer the
simulator already carries.  Subscription flips ``tracer.enabled``, so
every guarded emit site in the sim/core/network layers starts
producing events; with no plane installed those sites stay on the
NullTracer fast path (one attribute read, one branch, no field
computed).

Nothing the plane records is read back by dispatch: the rail tails the
rail order acts on are kept by the NICs themselves
(:attr:`~repro.network.nic.NIC.service_us`), so a plane changes what a
run knows about itself, never what it does.  Nor is it read back at the
end of the run: blame is attributed when the registry is first read,
so a traced run that only writes its trace pays for capture alone.

Scenarios opt in with a top-level ``"observability"`` block::

    "observability": {
      "sample_interval": 1e-5,     # simulated seconds; null disables
      "ring_buffer": 65536,        # keep last N events; null = keep all
      "trace": true,               # capture trace events at all
      "slo": [                     # edge latency objectives (SLObjective)
        {"name": "edge", "edge": "*", "threshold_us": 5000,
         "target": 0.99, "windows": [1.0, 10.0]}
      ]
    }

The block means the same on both planes: :meth:`ObservabilityConfig.from_spec`
is its one reader (called by :func:`~repro.runtime.scenario.parse_cluster`),
and an unknown key or a wrong-typed value is a :class:`ConfigurationError`
naming the key, same contract as the ``"faults"`` block — a typo'd knob
silently ignored would invalidate the run it was meant to observe.  A
live peer keeps no ring buffer, so the live plane refuses ``ring_buffer``
(:data:`repro.runtime.cluster.REFUSED`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.causal import export_blame
from repro.obs.export import write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.obs.sampler import ObservabilitySampler
from repro.util.errors import ConfigurationError, read_block, schema_of
from repro.util.tracing import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["ObservabilityConfig", "ObservabilityPlane", "SLObjective"]

#: The scenario ``"observability"`` block: key → ``(kind, default)``.
_SCHEMA = {
    "sample_interval": (float, None),
    "ring_buffer": (int, None),
    "trace": (bool, True),
    "slo": (list, None),
}


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One latency objective: ``target`` of crossings on edges matching
    ``edge`` complete within ``threshold_us`` microseconds.

    An entry of the block's ``slo`` list.  The plane does not evaluate
    it: the exact multi-window verdicts come from the trace, after the
    run (:func:`repro.obs.analyze.tails_payload`).  ``windows`` (seconds,
    trace-relative) is read as a list and kept as a tuple.
    """

    name: str
    threshold_us: float
    edge: str = "*"  #: fnmatch glob over ``"src->dst"`` edge names
    target: float = 0.999
    windows: list[float] = (1.0, 10.0)

    def __post_init__(self) -> None:
        if not self.threshold_us > 0:
            raise ConfigurationError(
                f"slo {self.name!r}: threshold_us must be > 0, got {self.threshold_us}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"slo {self.name!r}: target must be in (0, 1), got {self.target}"
            )
        windows = tuple(self.windows)
        if not windows or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) and w > 0 for w in windows
        ):
            raise ConfigurationError(
                f"slo {self.name!r}: windows must be positive durations, got {self.windows!r}"
            )
        object.__setattr__(self, "windows", tuple(map(float, windows)))

    @property
    def budget(self) -> float:
        """Error budget: the tolerated violating fraction."""
        return 1.0 - self.target


@dataclass(frozen=True, slots=True)
class ObservabilityConfig:
    """Validated shape of the scenario ``"observability"`` block.

    Parameters
    ----------
    sample_interval:
        Simulated seconds between time-series samples; ``None``
        disables the sampler (trace events still flow).
    ring_buffer:
        Flight-recorder capacity (events); ``None`` keeps everything.
    trace:
        When false, no trace sink is subscribed — the plane only
        samples into the metrics registry, and the per-event emit
        sites stay on their disabled fast path.
    slo:
        Edge latency objectives (:class:`SLObjective`), evaluated over
        the trace after the run (``repro obs analyze TRACE --scenario S``
        and a live run's ``tails["slo"]``).
    """

    sample_interval: float | None = None
    ring_buffer: int | None = None
    trace: bool = True
    slo: tuple[SLObjective, ...] = ()

    def __post_init__(self) -> None:
        if self.sample_interval is not None and not self.sample_interval > 0:
            raise ConfigurationError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.ring_buffer is not None and self.ring_buffer < 1:
            raise ConfigurationError(
                f"ring_buffer must be >= 1, got {self.ring_buffer}"
            )

    @classmethod
    def from_spec(cls, spec: Any) -> "ObservabilityConfig":
        """Read a scenario ``"observability"`` block: the only reader of
        it.  An objective without a ``name`` is named by its position."""
        values = read_block(spec, _SCHEMA, "observability")
        slo = []
        for i, entry in enumerate(values["slo"] or ()):
            schema = {**schema_of(SLObjective), "name": ((str,), f"slo{i}")}
            slo.append(SLObjective(**read_block(entry, schema, f"observability.slo[{i}]")))
        return cls(**{**values, "slo": tuple(slo)})


class ObservabilityPlane:
    """One cluster's observability capture, install → run → export."""

    def __init__(
        self, config: ObservabilityConfig | None = None, *, sink=None
    ) -> None:
        """``sink`` replaces the default recorder (a list, or the ring
        buffer).  A live peer passes its FLUSH spool: its events stream
        to the coordinator, which attributes blame over the merged trace,
        so a plane given a sink attributes none itself."""
        self.config = config if config is not None else ObservabilityConfig()
        self._registry = MetricsRegistry()
        self.sink = None
        self.sampler: ObservabilitySampler | None = None
        self._cluster: "Cluster | None" = None
        #: Whether this plane records its own trace, and so attributes
        #: blame over it; ``finalize`` sets ``_blame_owed`` from it.
        self._own_trace = False
        self._blame_owed = False
        if self.config.trace:
            if sink is not None:
                self.sink = sink
            else:
                self._own_trace = True
                if self.config.ring_buffer is not None:
                    self.sink = RingBufferSink(self.config.ring_buffer)
                else:
                    self.sink = ListSink()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self, cluster: "Cluster") -> None:
        """Attach to a freshly built cluster (before running it)."""
        if self._cluster is not None:
            raise ConfigurationError("observability plane is already installed")
        self._cluster = cluster
        if self.sink is not None:
            cluster.sim.tracer.subscribe(self.sink)
        if self.config.sample_interval is not None:
            self.sampler = ObservabilitySampler(
                cluster, self.config.sample_interval, registry=self._registry
            )

    def finalize(self) -> None:
        """Mirror end-of-run cumulative counters into the registry.

        Engine and NIC stats are maintained by the hot path itself;
        copying them in once at the end keeps the run unperturbed while
        making the Prometheus exposition a complete run summary.  The
        recorded trace is not read here: blame is attributed when the
        registry is first read (:attr:`registry`), so a run whose
        registry nobody reads pays for capture only.
        """
        cluster = self._cluster
        if cluster is None:
            return
        registry = self._registry

        def mirror(name: str, value: float, help: str, **labels: str) -> None:
            registry.counter(name, labels or None, help=help).set_total(value)

        for name, engine in cluster.engines.items():
            stats = engine.stats
            for metric, value, help in (
                ("repro_dispatches_total", stats.dispatches, "Packets dispatched"),
                ("repro_data_packets_total", stats.data_packets,
                 "Data packets dispatched"),
                ("repro_data_segments_total", stats.data_segments,
                 "Payload segments across data packets"),
                ("repro_holds_total", stats.holds, "Nagle holds taken"),
                ("repro_rdv_parked_total", stats.rdv_parked,
                 "Entries parked for rendezvous"),
                ("repro_failovers_total", stats.failovers, "Rail-down re-routes"),
            ):
                mirror(metric, value, help, node=name)
            for trigger, count in stats.activations.items():
                mirror("repro_activations_total", count,
                       "Optimizer activations by trigger", node=name, trigger=trigger)
        for node in cluster.nodes:
            for nic in node.nics:
                mirror("repro_nic_requests_total", nic.stats.requests,
                       "NIC send requests", nic=nic.name)
                mirror("repro_nic_wire_bytes_total", nic.stats.wire_bytes,
                       "Bytes put on the wire", nic=nic.name)
        if cluster.transport is not None:
            mirror("repro_retransmits_total", cluster.transport.stats.retransmits,
                   "Reliability-layer retransmissions")
        self.mirror_recorder()
        # What the plane itself cost, in the unit it is paid in: events.
        if self.sink is not None:
            for kind, count in self.sink.counts.items():
                mirror("repro_obs_events_total", count,
                       "Trace events dispatched to the plane's sinks", kind=kind)
        self._blame_owed = self._own_trace

    def mirror_recorder(self) -> None:
        """Mirror the recorder's event counts into the registry.

        ``finalize`` calls it; a live peer calls it at every FLUSH too,
        so the in-flight ``/metrics`` view counts spool drops as they
        happen.
        """
        sink = self.sink
        if sink is not None:
            registry = self._registry
            registry.counter(
                "repro_trace_events_total", help="Trace events captured (post-drop)"
            ).set_total(sink.seen - sink.dropped)
            registry.counter(
                "repro_trace_events_dropped_total",
                help="Trace events the recorder dropped",
            ).set_total(sink.dropped)

    # ------------------------------------------------------------------
    # access + export
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The plane's metrics, blame included once the run is finalized.

        Blame is attributed when the registry is first read after
        :meth:`finalize`: that read folds the recorded trace once, by
        the one pass over it (:func:`~repro.obs.analyze.analyze_events`),
        and exports its per-edge sums
        (:func:`~repro.obs.causal.export_blame`); later reads return the
        same registry.  With a ring buffer that overflowed, blame covers
        the retained window only.
        """
        if self._blame_owed:
            self._blame_owed = False
            from repro.obs.analyze import analyze_events

            export_blame(
                analyze_events(self.sink.events).report.edges(), self._registry
            )
        return self._registry

    @property
    def events(self) -> list[TraceEvent]:
        """Captured trace events (empty when tracing is off)."""
        return list(self.sink.events) if self.sink is not None else []

    def write_trace(self, path: str | Path) -> str:
        """Export captured events; format chosen by extension.

        A flight recorder that overflowed gets an ``obs.truncated``
        marker appended, so offline consumers can warn about the
        evicted prefix instead of reading the window as a full run.
        """
        if self.sink is None:
            raise ConfigurationError(
                "no trace captured: the observability plane has trace=false"
            )
        sink = self.sink
        events = sink.events
        if sink.dropped:
            events = events + [
                truncation_marker(events, sink.seen, sink.dropped, sink.capacity)
            ]
        return write_trace(path, events)

    def write_metrics(self, path: str | Path) -> None:
        """Export the registry as Prometheus text exposition."""
        Path(path).write_text(self.registry.to_prometheus(), encoding="utf-8")
