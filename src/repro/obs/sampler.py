"""The observability plane's periodic time-series sampler.

Every ``interval`` simulated seconds the sampler snapshots the state
the optimizer's story is told in — per-channel queue depth and bytes,
per-NIC busy fraction over the last interval, reliability-layer
retransmits in flight, rendezvous handshakes in flight, and hold-timer
occupancy — then

* updates the plane's :class:`~repro.obs.metrics.MetricsRegistry`
  (gauges for the instantaneous values, quantile sketches for the
  queue-depth and busy-fraction distributions), and
* emits one ``obs.sample`` trace event, which the Chrome exporter
  turns into Perfetto counter tracks.

Those two are the tick's only records: the sampler keeps no series of
its own, so a long live run does not grow it.

The sampler keeps itself alive only while the simulation is: it stops
rescheduling once its own tick is the last event in the queue, so
finite workloads still drain under ``run_until_idle``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tails import TailView
    from repro.runtime.cluster import Cluster

__all__ = ["ObservabilitySampler"]


class ObservabilitySampler:
    """Samples a cluster every ``interval`` virtual seconds."""

    def __init__(
        self,
        cluster: "Cluster",
        interval: float,
        *,
        registry: "MetricsRegistry | None" = None,
        source: str = "obs:sampler",
        autostart: bool = True,
        tail_view: "TailView | None" = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"sample interval must be > 0, got {interval}")
        self._cluster = cluster
        self.interval = interval
        self.registry = registry
        #: When set, each tick embeds compact per-edge p99s in its
        #: ``obs.sample`` record so the Perfetto export can draw tail
        #: counter tracks over time.
        self.tail_view = tail_view
        #: Trace source the tick emits under; live peers use ``obs:<node>``
        #: so merged multi-process traces attribute samples to a peer.
        self.source = source
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
        self.sample_once()
        if cluster.sim.pending_events == 0:
            # The tick just consumed was the only thing scheduled: the
            # simulation has drained, so let run_until_idle terminate.
            return
        cluster.sim.schedule(self.interval, self._tick)

    def sample_once(self) -> None:
        """Take one sample now: mirror it to the registry and emit it.

        The scheduling-free core of :meth:`_tick`, shared with subclasses
        that drive their own cadence (live wall-clock sampling).
        """
        cluster = self._cluster
        now = cluster.sim.now
        detail = self._snapshot(now)
        if self.registry is not None:
            self._update_registry(detail)
        tracer = cluster.sim.tracer
        if tracer.enabled:
            if self.tail_view is not None:
                tails = {
                    edge: stats.p99_us
                    for edge, stats in self.tail_view.edges().items()
                }
                if tails:
                    detail["tail_p99_us"] = tails
            tracer.emit(now, self.source, "obs.sample", **detail)

    def _snapshot(self, now: float) -> dict[str, Any]:
        """One tick, in the shape of the ``obs.sample`` event detail.

        ``queues`` maps ``"node/channel_id"`` to ``[pending entries,
        pending bytes]``, ``nic_busy`` a NIC name to its busy fraction
        over the last interval (0..1), ``holds_armed`` counts engines
        with a Nagle hold timer pending and ``completed`` the messages
        reassembled so far.
        """
        cluster = self._cluster
        queues: dict[str, list[int]] = {}
        holds = 0
        rdv = 0
        for name, engine in cluster.engines.items():
            for queue in engine.waiting.queues():
                queues[f"{name}/{queue.channel_id}"] = [len(queue), queue.pending_bytes]
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
        return dict(
            queues=queues,
            nic_busy=nic_busy,
            backlog=sum(e.waiting.total_pending for e in cluster.engines.values()),
            backlog_bytes=sum(
                e.waiting.total_pending_bytes for e in cluster.engines.values()
            ),
            retransmits_in_flight=transport.in_flight if transport is not None else 0,
            rendezvous_in_flight=rdv,
            holds_armed=holds,
            completed=sum(r.messages_completed for r in cluster.reassemblers.values()),
        )

    def _update_registry(self, sample: dict[str, Any]) -> None:
        registry = self.registry
        assert registry is not None
        for key, (depth, n_bytes) in sample["queues"].items():
            node, _, channel = key.partition("/")
            labels = {"node": node, "channel": channel}
            registry.gauge(
                "repro_queue_depth", labels, help="Pending entries per channel queue"
            ).set(depth)
            registry.gauge(
                "repro_queue_bytes", labels, help="Pending bytes per channel queue"
            ).set(n_bytes)
            registry.sketch(
                "repro_queue_depth_hist",
                help="Sampled channel queue depth distribution",
            ).observe(depth)
        for nic_name, fraction in sample["nic_busy"].items():
            registry.gauge(
                "repro_nic_busy_fraction",
                {"nic": nic_name},
                help="NIC busy fraction over the last sample interval",
            ).set(fraction)
            registry.sketch(
                "repro_nic_busy_hist",
                help="Sampled NIC busy fraction distribution (percent)",
            ).observe(fraction * 100.0)
        registry.gauge(
            "repro_backlog_entries", help="Pending entries across all engines"
        ).set(sample["backlog"])
        registry.gauge(
            "repro_backlog_bytes", help="Pending bytes across all engines"
        ).set(sample["backlog_bytes"])
        registry.gauge(
            "repro_retransmits_in_flight",
            help="Reliability-layer packets awaiting acknowledgement",
        ).set(sample["retransmits_in_flight"])
        registry.gauge(
            "repro_rendezvous_in_flight",
            help="Rendezvous handshakes awaiting acknowledgement",
        ).set(sample["rendezvous_in_flight"])
        registry.gauge(
            "repro_hold_timers_armed", help="Engines with a Nagle hold timer pending"
        ).set(sample["holds_armed"])
        registry.counter(
            "repro_samples_total", help="Observability samples taken"
        ).inc()
