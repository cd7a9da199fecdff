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
NullTracer fast path (one attribute read, one branch, no detail-dict
allocation).

Scenarios opt in with a top-level ``"observability"`` block::

    "observability": {
      "sample_interval": 1e-5,     # simulated seconds; null disables
      "ring_buffer": 65536,        # keep last N events; null = keep all
      "trace": true,               # capture trace events at all
      "exemplars": 5,              # slowest-K span chains kept per edge
      "slo": [                     # latency objectives (see obs.tails)
        {"name": "edge", "edge": "*", "threshold_us": 5000,
         "target": 0.99, "windows": [1.0, 10.0]}
      ]
    }

Unknown keys are rejected (:class:`ConfigurationError`), same contract
as the ``"faults"`` block — a typo'd knob silently ignored would
invalidate the run it was meant to observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.causal import TailExemplars
from repro.obs.export import write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ListSink, RingBufferSink, truncation_marker
from repro.obs.sampler import ObservabilitySampler
from repro.obs.tails import SLObjective, TailRecorder, TailView, parse_slo
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["ObservabilityConfig", "ObservabilityPlane"]

_SPEC_KEYS = frozenset(
    {"sample_interval", "ring_buffer", "trace", "slo", "exemplars"}
)

#: Slowest-K span chains kept per edge when the scenario does not say.
_DEFAULT_EXEMPLARS = 4


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
        sites stay on their disabled fast path.  Tail sketches ride
        the same subscription, so they are also off.
    slo:
        Latency objectives evaluated over the edge tail sketches
        (see :mod:`repro.obs.tails`).
    exemplars:
        Slowest-K span chains kept per edge by the causal-attribution
        reservoir (see :class:`repro.obs.causal.TailExemplars`).
        ``None`` takes the default K; ``0`` disables the reservoir.
        Only meaningful with ``trace`` on.
    """

    sample_interval: float | None = None
    ring_buffer: int | None = None
    trace: bool = True
    slo: tuple[SLObjective, ...] = ()
    exemplars: int | None = None

    def __post_init__(self) -> None:
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.ring_buffer is not None and self.ring_buffer < 1:
            raise ConfigurationError(
                f"ring_buffer must be >= 1, got {self.ring_buffer}"
            )
        if self.exemplars is not None and self.exemplars < 0:
            raise ConfigurationError(
                f"exemplars must be >= 0, got {self.exemplars}"
            )

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "ObservabilityConfig":
        """Build from a scenario mapping, rejecting unknown keys."""
        for key in spec:
            if key not in _SPEC_KEYS:
                raise ConfigurationError(
                    f"unknown observability key {key!r} (known: {sorted(_SPEC_KEYS)})"
                )
        return cls(
            sample_interval=spec.get("sample_interval"),
            ring_buffer=spec.get("ring_buffer"),
            trace=spec.get("trace", True),
            slo=parse_slo(spec.get("slo")),
            exemplars=spec.get("exemplars"),
        )


class ObservabilityPlane:
    """One cluster's observability capture, install → run → export."""

    def __init__(self, config: ObservabilityConfig | None = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.registry = MetricsRegistry()
        self.sink: ListSink | RingBufferSink | None = None
        self.sampler: ObservabilitySampler | None = None
        self.tail_view = TailView(self.registry, self.config.slo)
        self.tail_recorder: TailRecorder | None = None
        self.tail_exemplars: TailExemplars | None = None
        self._cluster: "Cluster | None" = None
        if self.config.trace:
            self.sink = (
                RingBufferSink(self.config.ring_buffer)
                if self.config.ring_buffer is not None
                else ListSink()
            )
            self.tail_recorder = TailRecorder(self.registry)
            k = (
                _DEFAULT_EXEMPLARS
                if self.config.exemplars is None
                else self.config.exemplars
            )
            if k > 0:
                self.tail_exemplars = TailExemplars(k)

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
        if self.tail_recorder is not None:
            cluster.sim.tracer.subscribe(self.tail_recorder)
        if self.tail_exemplars is not None:
            cluster.sim.tracer.subscribe(self.tail_exemplars)
        # The view is read-only; handing it to every engine changes
        # dispatch only where a ``tuner`` block installs a rail selector
        # on it.  Without the recorder (``"trace": false``) nothing
        # would ever feed it, so engines keep ``tail_view = None`` and a
        # selector refuses to install on tails that cannot exist.
        if self.tail_recorder is not None:
            for engine in cluster.engines.values():
                engine.tail_view = self.tail_view
        if self.config.sample_interval is not None:
            self.sampler = ObservabilitySampler(
                cluster,
                self.config.sample_interval,
                registry=self.registry,
                tail_view=self.tail_view,
            )

    def finalize(self) -> None:
        """Mirror end-of-run cumulative counters into the registry.

        Engine and NIC stats are maintained by the hot path itself;
        copying them in once at the end keeps the run unperturbed while
        making the Prometheus exposition a complete run summary.
        """
        cluster = self._cluster
        if cluster is None:
            return
        registry = self.registry

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
        if self.sink is not None:
            mirror("repro_trace_events_total", len(self.sink.events),
                   "Trace events captured (post-drop)")
            mirror("repro_trace_events_dropped_total", self.sink.dropped,
                   "Trace events evicted by the flight recorder")
        # What the plane itself cost, in the unit it is paid in: events.
        for kind, count in cluster.sim.tracer.counts.items():
            mirror("repro_obs_events_total", count,
                   "Trace events dispatched to the plane's sinks", kind=kind)
        if self.tail_exemplars is not None:
            self.tail_exemplars.finish()
            self.tail_exemplars.export(registry)

    # ------------------------------------------------------------------
    # access + export
    # ------------------------------------------------------------------
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
        events = self.sink.events
        if self.sink.dropped:
            events = events + [truncation_marker(self.sink)]
        return write_trace(path, events)

    def write_metrics(self, path: str | Path) -> None:
        """Export the registry as Prometheus text exposition."""
        Path(path).write_text(self.registry.to_prometheus(), encoding="utf-8")
