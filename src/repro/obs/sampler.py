"""The observability plane's periodic time-series sampler.

Every ``interval`` simulated seconds the sampler snapshots the state
the optimizer's story is told in — per-channel queue depth and bytes,
per-NIC busy fraction over the last interval, reliability-layer
retransmits in flight, rendezvous handshakes in flight, and hold-timer
occupancy — then

* updates the plane's :class:`~repro.obs.metrics.MetricsRegistry`
  (gauges for the instantaneous values), and
* emits one ``obs.sample`` trace event, which the Chrome exporter
  turns into Perfetto counter tracks (and from which ``obs analyze``
  builds the queue-depth and busy-fraction series).

Those two are the tick's only records: the sampler keeps no series of
its own, so a long live run does not grow it, and it carries no
latency — per-edge latency over time is read from the trace's wire
crossings (:mod:`repro.obs.analyze`).

The sampler keeps itself alive only while the simulation is: it stops
rescheduling once its own tick is the last event in the queue, so
finite workloads still drain under ``run_until_idle``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
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
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"sample interval must be > 0, got {interval}")
        self._cluster = cluster
        self.interval = interval
        self.registry = registry
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
        sample = self._snapshot(now)
        if self.registry is not None:
            self._update_registry(*sample)
        tracer = cluster.sim.tracer
        if tracer.enabled:
            tracer.emit((now, self.source, "obs.sample", *sample))

    def _snapshot(self, now: float) -> tuple:
        """One tick: the ``obs.sample`` event's fields, in order.

        ``queues`` pairs ``"node/channel_id"`` with ``(pending entries,
        pending bytes)``, ``nic_busy`` a NIC name with its busy fraction
        over the last interval (0..1); ``holds_armed`` counts engines
        with a Nagle hold timer pending and ``completed`` the messages
        reassembled so far.
        """
        cluster = self._cluster
        queues = []
        holds = 0
        rdv = 0
        for name, engine in cluster.engines.items():
            for queue in engine.waiting.queues():
                queues.append((f"{name}/{queue.channel_id}", (len(queue), queue.pending_bytes)))
            if engine.hold_timer_armed:
                holds += 1
            rdv += engine.rendezvous_in_flight

        nic_busy = []
        span = now - self._prev_time if self._prev_time is not None else None
        for node in cluster.nodes:
            for nic in node.nics:
                busy = nic.stats.busy_time
                if span is not None and span > 0:
                    delta = busy - self._prev_busy.get(nic.name, 0.0)
                    nic_busy.append((nic.name, min(max(delta / span, 0.0), 1.0)))
                else:
                    nic_busy.append((nic.name, 0.0))
                self._prev_busy[nic.name] = busy
        self._prev_time = now

        transport = cluster.transport
        engines = cluster.engines.values()
        return (
            tuple(queues), tuple(nic_busy),
            sum(e.waiting.total_pending for e in engines),
            sum(e.waiting.total_pending_bytes for e in engines),
            transport.in_flight if transport is not None else 0, rdv, holds,
            sum(r.messages_completed for r in cluster.reassemblers.values()),
        )

    def _update_registry(
        self, queues, nic_busy, backlog, backlog_bytes, retransmits, rendezvous, holds, _completed
    ) -> None:
        registry = self.registry
        assert registry is not None
        for key, (depth, n_bytes) in queues:
            node, _, channel = key.partition("/")
            labels = {"node": node, "channel": channel}
            registry.gauge("repro_queue_depth", labels,
                           help="Pending entries per channel queue").set(depth)
            registry.gauge("repro_queue_bytes", labels,
                           help="Pending bytes per channel queue").set(n_bytes)
        for nic_name, fraction in nic_busy:
            registry.gauge("repro_nic_busy_fraction", {"nic": nic_name},
                           help="NIC busy fraction over the last sample interval").set(fraction)
        for name, value, help_text in (
            ("repro_backlog_entries", backlog, "Pending entries across all engines"),
            ("repro_backlog_bytes", backlog_bytes, "Pending bytes across all engines"),
            ("repro_retransmits_in_flight", retransmits,
             "Reliability-layer packets awaiting acknowledgement"),
            ("repro_rendezvous_in_flight", rendezvous,
             "Rendezvous handshakes awaiting acknowledgement"),
            ("repro_hold_timers_armed", holds, "Engines with a Nagle hold timer pending"),
        ):
            registry.gauge(name, help=help_text).set(value)
        registry.counter("repro_samples_total", help="Observability samples taken").inc()
