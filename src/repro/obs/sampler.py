"""The observability plane's periodic time-series sampler.

Every ``interval`` simulated seconds the sampler snapshots the state
the optimizer's story is told in — per-channel queue depth and bytes,
per-NIC busy fraction over the last interval, reliability-layer
retransmits in flight, rendezvous handshakes in flight, and hold-timer
occupancy — then

* appends an :class:`ObsSample` row to its in-memory series,
* updates the plane's :class:`~repro.obs.metrics.MetricsRegistry`
  (gauges for the instantaneous values, log-bucketed histograms for
  the queue-depth and busy-fraction distributions), and
* emits one ``obs.sample`` trace event, which the Chrome exporter
  turns into Perfetto counter tracks.

The sampler keeps itself alive only while the simulation is: with no
``horizon`` it stops rescheduling once its own tick is the last event
in the queue, so finite workloads still drain under
``run_until_idle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tails import TailView
    from repro.runtime.cluster import Cluster

__all__ = ["ObsSample", "ObservabilitySampler"]


@dataclass(frozen=True, slots=True)
class ObsSample:
    """One tick of the observability time series."""

    time: float
    #: ``"node/channel_id"`` → (pending entries, pending bytes).
    queues: dict[str, tuple[int, int]]
    #: NIC name → busy fraction over the last interval (0..1).
    nic_busy: dict[str, float]
    backlog: int
    backlog_bytes: int
    retransmits_in_flight: int
    rendezvous_in_flight: int
    holds_armed: int  #: engines with a Nagle hold timer pending
    messages_completed: int


class ObservabilitySampler:
    """Samples a cluster every ``interval`` virtual seconds."""

    def __init__(
        self,
        cluster: "Cluster",
        interval: float,
        *,
        registry: "MetricsRegistry | None" = None,
        horizon: float | None = None,
        source: str = "obs:sampler",
        autostart: bool = True,
        tail_view: "TailView | None" = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"sample interval must be > 0, got {interval}")
        if horizon is not None and horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon}")
        self._cluster = cluster
        self.interval = interval
        self.horizon = horizon
        self.registry = registry
        #: When set, each tick embeds compact per-edge p99s in its
        #: ``obs.sample`` record so the Perfetto export can draw tail
        #: counter tracks over time.
        self.tail_view = tail_view
        #: Trace source the tick emits under; live peers use ``obs:<node>``
        #: so merged multi-process traces attribute samples to a peer.
        self.source = source
        self.samples: list[ObsSample] = []
        self._prev_busy: dict[str, float] = {}
        self._prev_time: float | None = None
        if autostart:
            # Subclasses with their own scheduling discipline (the live
            # plane's wall-clock sampler) pass autostart=False: the base
            # tick would pin itself to the event queue and, live, keep a
            # timer permanently pending — defeating quiescence detection.
            cluster.sim.schedule(0.0, self._tick)

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        cluster = self._cluster
        if self.horizon is not None and cluster.sim.now > self.horizon:
            return
        self.sample_once()
        if self.horizon is None and cluster.sim.pending_events == 0:
            # The tick just consumed was the only thing scheduled: the
            # simulation has drained, so let run_until_idle terminate.
            return
        cluster.sim.schedule(self.interval, self._tick)

    def sample_once(self) -> ObsSample:
        """Take one sample now: record, mirror to the registry, emit.

        The scheduling-free core of :meth:`_tick`, shared with subclasses
        that drive their own cadence (live wall-clock sampling).
        """
        cluster = self._cluster
        now = cluster.sim.now
        sample = self._snapshot(now)
        self.samples.append(sample)
        if self.registry is not None:
            self._update_registry(sample)
        tracer = cluster.sim.tracer
        if tracer.enabled:
            detail = dict(
                queues={k: list(v) for k, v in sample.queues.items()},
                nic_busy=sample.nic_busy,
                backlog=sample.backlog,
                backlog_bytes=sample.backlog_bytes,
                retransmits_in_flight=sample.retransmits_in_flight,
                rendezvous_in_flight=sample.rendezvous_in_flight,
                holds_armed=sample.holds_armed,
                completed=sample.messages_completed,
            )
            if self.tail_view is not None:
                tails = {
                    edge: stats.p99_us
                    for edge, stats in self.tail_view.edges().items()
                }
                if tails:
                    detail["tail_p99_us"] = tails
            tracer.emit(now, self.source, "obs.sample", **detail)
        return sample

    def _snapshot(self, now: float) -> ObsSample:
        cluster = self._cluster
        queues: dict[str, tuple[int, int]] = {}
        holds = 0
        rdv = 0
        for name, engine in cluster.engines.items():
            for queue in engine.waiting.queues():
                queues[f"{name}/{queue.channel_id}"] = (
                    len(queue),
                    queue.pending_bytes,
                )
            if engine.hold_timer_armed:
                holds += 1
            rdv += engine.rendezvous_in_flight

        nic_busy: dict[str, float] = {}
        span = now - self._prev_time if self._prev_time is not None else None
        for node in cluster.nodes:
            for nic in node.nics:
                busy = nic.stats.busy_time
                if span is not None and span > 0:
                    delta = busy - self._prev_busy.get(nic.name, 0.0)
                    nic_busy[nic.name] = min(max(delta / span, 0.0), 1.0)
                else:
                    nic_busy[nic.name] = 0.0
                self._prev_busy[nic.name] = busy
        self._prev_time = now

        transport = cluster.transport
        return ObsSample(
            time=now,
            queues=queues,
            nic_busy=nic_busy,
            backlog=sum(e.waiting.total_pending for e in cluster.engines.values()),
            backlog_bytes=sum(
                e.waiting.total_pending_bytes for e in cluster.engines.values()
            ),
            retransmits_in_flight=transport.in_flight if transport is not None else 0,
            rendezvous_in_flight=rdv,
            holds_armed=holds,
            messages_completed=sum(
                r.messages_completed for r in cluster.reassemblers.values()
            ),
        )

    def _update_registry(self, sample: ObsSample) -> None:
        registry = self.registry
        assert registry is not None
        for key, (depth, n_bytes) in sample.queues.items():
            node, _, channel = key.partition("/")
            labels = {"node": node, "channel": channel}
            registry.gauge(
                "repro_queue_depth", labels, help="Pending entries per channel queue"
            ).set(depth)
            registry.gauge(
                "repro_queue_bytes", labels, help="Pending bytes per channel queue"
            ).set(n_bytes)
            registry.histogram(
                "repro_queue_depth_hist",
                help="Sampled channel queue depth distribution",
            ).observe(depth)
        for nic_name, fraction in sample.nic_busy.items():
            registry.gauge(
                "repro_nic_busy_fraction",
                {"nic": nic_name},
                help="NIC busy fraction over the last sample interval",
            ).set(fraction)
            registry.histogram(
                "repro_nic_busy_hist",
                help="Sampled NIC busy fraction distribution (percent)",
                base=1.0,
                growth=2.0,
                n_buckets=8,
            ).observe(fraction * 100.0)
        registry.gauge(
            "repro_backlog_entries", help="Pending entries across all engines"
        ).set(sample.backlog)
        registry.gauge(
            "repro_backlog_bytes", help="Pending bytes across all engines"
        ).set(sample.backlog_bytes)
        registry.gauge(
            "repro_retransmits_in_flight",
            help="Reliability-layer packets awaiting acknowledgement",
        ).set(sample.retransmits_in_flight)
        registry.gauge(
            "repro_rendezvous_in_flight",
            help="Rendezvous handshakes awaiting acknowledgement",
        ).set(sample.rendezvous_in_flight)
        registry.gauge(
            "repro_hold_timers_armed", help="Engines with a Nagle hold timer pending"
        ).set(sample.holds_armed)
        registry.counter(
            "repro_samples_total", help="Observability samples taken"
        ).inc()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def series(self, field: str) -> list[float]:
        """One scalar sample field over time (e.g. ``"backlog"``)."""
        try:
            return [getattr(s, field) for s in self.samples]
        except AttributeError:
            raise ConfigurationError(f"unknown sample field {field!r}") from None

    @property
    def times(self) -> list[float]:
        return self.series("time")
