"""One live peer process: a single node of the engine stack over sockets.

Run as ``python -m repro.live.peer`` by the coordinator
(:mod:`repro.live.cluster`); never started by hand.  The peer speaks a
JSON-lines control protocol on stdin/stdout::

    CONFIG  -> READY {endpoint}          build the stack, bind a server
    MESH    -> MESH_OK                   connect to lower ranks, await rest
    START   -> STARTED                   install workload apps
    STATUS  -> STATUS {quiet, counters}  quiescence polling
    FLUSH   -> FLUSHED {events, metrics} drain trace spool + registry snapshot
    STOP    -> REPORT {...}              final records + counters, then exit

Inside, the peer runs the *same* stack the simulated
:class:`~repro.runtime.cluster.Cluster` runs, built by the same code:
the scenario is read by :func:`~repro.runtime.scenario.parse_cluster`
and :func:`~repro.runtime.scenario.build_workloads`, and everything
above the NICs of the local node comes from
:func:`~repro.runtime.cluster.build_node_stack`.  What the peer builds
itself is its transfer layer — :class:`~repro.live.nic.LiveNIC`\\ s whose
idle transition is a socket-drain event, on a
:class:`~repro.live.hub.Hub` of sockets, timed by a
:class:`~repro.live.loop.LiveClock` over asyncio.

**Every peer builds the flow table, each peer runs its own half.**
Every peer installs the *entire* scenario, so every flow of every app
is opened — at START, in the same order, before any traffic — and the
run-scoped flow counter (``sim.ids``) assigns identical ids on every
peer: that is what lets a wire descriptor's ``flow`` field resolve to
the right local :class:`~repro.madeleine.message.Flow` object.  But a
workload process is started only on the peer that owns its node
(:meth:`~repro.middleware.base.AppBase.spawn`); a remote node has a
:class:`~repro.madeleine.api.MadAPI` to open flows on and no engine
behind it.  Global termination is detected by counter agreement
(messages submitted == deliveries acknowledged), not by app completion.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
import traceback
from dataclasses import replace
from typing import Any

from repro.madeleine.api import MadAPI
from repro.madeleine.message import Flow, Message
from repro.madeleine.rx import MessageReassembler
from repro.network.fabric import Node
from repro.network.faults import rail_names
from repro.network.technologies import TECHNOLOGIES
from repro.network.wire import META_CORR, META_SENT_AT, META_VIA
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.runtime.cluster import build_node_stack
from repro.runtime.metrics import MetricsCollector, stats_row
from repro.runtime.scenario import build_workloads, parse_cluster
from repro.util.rng import SeedSequenceRegistry
from repro.util.tracing import Tracer, event_to_dict

from repro.live.hub import Hub
from repro.live.loop import LiveClock
from repro.live.nic import LiveNIC
from repro.live.observe import LiveSampler, SpoolSink
from repro.live.transport import MirrorReceiver

__all__ = ["LivePeer", "main"]


# --------------------------------------------------------------------------
# the engine stack, assembled for one node
# --------------------------------------------------------------------------


#: Every counter the socket plane keeps for one peer, declared once as
#: ``(report key, getter(peer), metric name or None, metric help)``.
#: ``report()["transport"]`` carries every row under its key, STATUS the
#: rows named in ``_STATUS_KEYS``, and ``_mirror_live_metrics`` mirrors
#: the rows that name a metric into the registry.
_TRANSPORT_COUNTERS = (
    ("bytes_tx", lambda p: p.hub.bytes_tx,
     "repro_live_bytes_tx_total", "Bytes written to peer sockets"),
    ("socket_writes", lambda p: p.hub.socket_writes, None, ""),
    ("bytes_rx", lambda p: p.hub.bytes_rx,
     "repro_live_bytes_rx_total", "Bytes read from peer sockets"),
    ("bytes_verified", lambda p: p.mirror.bytes_verified,
     "repro_live_bytes_verified_total",
     "Payload bytes checked against the sender's pattern"),
    ("corrupt_slices", lambda p: p.mirror.corrupt_slices,
     "repro_live_corrupt_slices_total", "Payload slices that failed verification"),
    ("submitted", lambda p: p.hub.submitted, None, ""),
    ("done_sent", lambda p: p.hub.done_sent, None, ""),
    ("done_frames_sent", lambda p: p.hub.done_frames_sent, None, ""),
    ("data_bytes_sent", lambda p: p.hub.data_bytes_sent, None, ""),
    ("done_received", lambda p: p.hub.done_received, None, ""),
    ("abandoned", lambda p: p.hub.abandoned,
     "repro_live_abandoned_messages_total",
     "Submitted messages abandoned because their destination died"),
    ("blackholed", lambda p: p.hub.blackholed,
     "repro_live_blackholed_total", "Packets addressed to a declared-dead peer"),
    ("done_suppressed", lambda p: p.hub.done_suppressed, None, ""),
    ("done_by_dst", lambda p: dict(p.hub.done_by_dst), None, ""),
    ("done_rx_by_src", lambda p: dict(p.hub.done_rx_by_src), None, ""),
    ("retransmits", lambda p: p.hub.stats.retransmits,
     "repro_live_retransmits_total", "Enveloped records re-sent after an RTO expiry"),
    ("dups_discarded", lambda p: p.hub.stats.dups_discarded,
     "repro_live_dups_discarded_total",
     "Duplicate enveloped records dropped by the receive ledger"),
    ("reorder_held", lambda p: p.hub.stats.reorder_held, None, ""),
    ("acks_sent", lambda p: p.hub.stats.acks_sent, None, ""),
    ("acks_dropped", lambda p: p.hub.stats.acks_dropped, None, ""),
    ("exhausted", lambda p: p.hub.stats.exhausted, None, ""),
    ("corrupt_frames", lambda p: p.hub.corrupt_frames,
     "repro_live_corrupt_frames_total",
     "Records discarded by the tolerant stream decoders"),
    ("reconnects", lambda p: p.hub.reconnects,
     "repro_live_reconnects_total", "Peer connections re-established after a loss"),
    ("disconnects", lambda p: p.hub.disconnects,
     "repro_live_disconnects_total",
     "Peer connections lost (EOF, error, or injected close)"),
    ("heartbeats_sent", lambda p: p.hub.heartbeats_sent,
     "repro_live_heartbeats_sent_total", "Liveness beacons written to peer sockets"),
    ("lost_frames", lambda p: p.hub.lost_frames, None, ""),
    ("dead", lambda p: sorted(p.hub.dead_nodes), None, ""),
)
_STATUS_KEYS = frozenset(
    {"submitted", "done_sent", "done_received", "abandoned",
     "done_by_dst", "done_rx_by_src", "dead"}
)


class LivePeer:
    """Everything one peer process owns; driven by the control protocol.

    The peer is also the *cluster* of this process: it carries the
    attributes of :class:`~repro.runtime.cluster.Cluster` that the
    observability plane, the sampler and the workload apps
    read (``sim``, ``nodes``, ``engines``, ``reassemblers``, ``apis``,
    ``transport``, ``engine_kind``, ``api()``, ``stream()``), holding
    the one local node — so each of them is installed on the peer
    exactly as it is installed on a simulated cluster.
    """

    def __init__(self, config: dict[str, Any]) -> None:
        scenario = config["scenario"]
        spec = parse_cluster(scenario)
        self.rank = int(config["rank"])
        self.scenario = scenario
        self.names = [f"n{i}" for i in range(int(config["n_nodes"]))]
        self.local = self.names[self.rank]
        self.timeout = float(config.get("timeout", 60.0))
        self.chaos = spec["faults"]
        self.obs_config = spec["observability"] or ObservabilityConfig(trace=False)

        self.tracer = Tracer()
        loop = asyncio.get_running_loop()
        # ``sim`` is the name the clock goes by on a cluster.
        self.clock = self.sim = LiveClock(
            loop,
            epoch=float(config["epoch"]),
            time_scale=float(config.get("time_scale", 1.0)),
            tracer=self.tracer,
        )
        self.hub = Hub(
            self.clock,
            self.local,
            self.rank,
            self._deliver_frame,
            names=self.names,
            chaos=self.chaos,
        )
        #: The socket hub when chaos/reliability is active — it exposes
        #: the ``stats.retransmits`` / ``in_flight`` surface of the
        #: simulated :class:`~repro.network.reliable.ReliableTransport`.
        #: Without chaos the plain TCP/UDS stream *is* the reliability
        #: layer and the gauges read 0 by design.
        self.transport = self.hub if self.hub.reliable else None
        self.rng = SeedSequenceRegistry(spec["seed"])
        #: Flow id -> ``Flow``, for every flow of the scenario (filled
        #: at START: installing the apps opens all of them).
        self.flows: dict[int, Flow] = {}
        self.mirror = MirrorReceiver(self.local, self.flows.get)
        self.metrics = MetricsCollector()
        self.apps: list = []
        self.cpu_start_s = 0.0  # process time at START (install_apps)
        self._apps_installed = False
        #: Data frames that raced ahead of this peer's START (see
        #: ``_deliver_frame``); replayed once the flows exist.
        self._pre_start_frames: list = []
        self._build_stack(spec)
        self._install_observability()

    # -- the Cluster accessors workload apps call ----------------------
    def api(self, node_name: str) -> MadAPI:
        """The packing API of one node (engine-less for remote nodes)."""
        return self.apis[node_name]

    def stream(self, name: str):
        """A named deterministic RNG stream."""
        return self.rng.stream(name)

    def _install_observability(self) -> None:
        """Attach the full observability plane to this peer's stack.

        The plane gets a sampler-less config — its base sampler lives on
        the simulator event queue, which on a live clock would pin
        ``pending_timers`` above zero and defeat quiescence detection —
        and a :class:`LiveSampler` is driven off the clock's uncounted
        ``background`` timers instead.
        The plane's one trace recorder is the spool, the streaming buffer
        the coordinator drains with FLUSH requests.
        """
        self.spool: SpoolSink | None = SpoolSink() if self.obs_config.trace else None
        self.plane = ObservabilityPlane(
            replace(self.obs_config, sample_interval=None), sink=self.spool
        )
        self.plane.install(self)
        self.sampler: LiveSampler | None = None
        if self.obs_config.sample_interval is not None:
            self.sampler = LiveSampler(
                self,
                self.obs_config.sample_interval,
                registry=self.plane.registry,
                source=f"obs:{self.local}",
            )

    # -- construction --------------------------------------------------
    def _build_stack(self, spec: dict[str, Any]) -> None:
        """The local node: live NICs here, the rest from the shared builder."""
        self.node = Node(self.clock, self.local)
        links = {
            f"{tech}{i}": TECHNOLOGIES[tech]() for i, (tech, _) in enumerate(spec["networks"])
        }
        #: Local NIC name → its network's name, for outage matching.
        self.rails = dict(rail_names([self.local], spec["networks"]))
        for name, network in self.rails.items():
            self.node.nics.append(
                LiveNIC(self.clock, name, self.local, links[network], self.hub.send_packet)
            )
        self.engine_kind = spec["engine"]
        self.engine, self.reassembler, api = build_node_stack(
            self.clock,
            self.node,
            engine=spec["engine"],
            strategy=spec["strategy"],
            policy=spec["policy"],
            config=spec["config"],
            rail_order=spec["rail_order"],
        )
        self.metrics.attach(self.reassembler)
        # Chain-wrap the reassembler's single completion slot: metrics
        # first (records the delivery), then the DONE acknowledgement
        # back to the sender so it can resolve the original message.
        record = self.reassembler.on_message_complete

        def on_complete(message: Message, now: float) -> None:
            record(message, now)
            self.hub.send_done(message.flow.src, message.message_id, now)
            self.mirror.forget(message)

        self.reassembler.on_message_complete = on_complete

        self.nodes = [self.node]
        self.engines = {self.local: self.engine}
        self.reassemblers = {self.local: self.reassembler}
        # Every node gets an API to open its flows on; only the local
        # one has an engine behind it.
        self.apis: dict[str, MadAPI] = {self.local: api}
        for name in self.names:
            if name != self.local:
                self.apis[name] = MadAPI(name, None, MessageReassembler(self.clock, name))

    # -- inbound engine traffic ----------------------------------------
    def _deliver_frame(self, frame) -> None:
        # START is delivered peer by peer, so a fast peer's first data
        # frame can land here before *this* peer has installed its apps
        # (and therefore registered its flows).  Park such frames and
        # replay them from install_apps — decoding one now would die on
        # "unknown flow id".
        if not self._apps_installed:
            self._pre_start_frames.append(frame)
            return
        if self.tracer.enabled and META_CORR in frame.meta:
            # The receive half of a wire crossing: carries the sender's
            # correlation id and clock so the coordinator can match it
            # to the exact nic.send span on the sending peer.
            self.tracer.emit((
                self.clock.now, f"live:{self.local}", "live.recv",
                frame.meta[META_CORR], frame.src, self.local,
                frame.meta.get(META_VIA), frame.meta.get(META_SENT_AT),
                frame.kind.value, len(frame.segments),
                sum(seg.length for seg in frame.segments),
            ))
        packet = self.mirror.packet_from_frame(frame, self.clock.ids.packet())
        self.node.receiver.deliver(packet)

    # -- control-protocol steps ----------------------------------------
    def install_apps(self) -> int:
        """Build and install every scenario workload; returns the count.

        Installation opens every flow of the scenario synchronously (so
        the flow table is complete before any frame is decoded) and
        starts the local node's processes — traffic begins as soon as
        the event loop runs.
        """
        self.cpu_start_s = time.process_time()
        self.apps = build_workloads(self.scenario)
        for app in self.apps:
            app.install(self)
        self.flows.update(
            (flow.flow_id, flow) for api in self.apis.values() for flow in api.flows
        )
        if self.sampler is not None:
            self.sampler.start()
        self._arm_chaos()
        self._apps_installed = True
        if self._pre_start_frames:
            early, self._pre_start_frames = self._pre_start_frames, []
            for frame in early:
                self._deliver_frame(frame)
        return len(self.apps)

    def _arm_chaos(self) -> None:
        """Start heartbeats and schedule outages / the die timer.

        Runs at START (not CONFIG) so every injected event is measured
        from the moment traffic begins.  Outage and die timers are
        ``background`` timers, not counted clock events: a
        scheduled-but-unfired outage must not hold an
        otherwise-finished run open — if the
        workload completes first, the outage simply never happens (the
        simulator, which can fast-forward virtual time, always fires
        them; a wall-clock run cannot).
        """
        chaos = self.chaos
        if chaos is None:
            return
        self.hub.start_heartbeats()
        background = self.clock.background
        for outage in chaos.outages:
            for nic in self.node.nics:
                if outage.hits(nic.name, self.rails[nic.name]):
                    background(outage.at, nic.fail)
                    if outage.recover is not None:
                        background(outage.recover, nic.recover)
        die = chaos.die
        if die is not None and die.rank == self.rank:
            background(die.after, os.kill, os.getpid(), die.signal)

    def mark_dead(self, nodes: list[str]) -> dict[str, int]:
        """React to a ``peer_down`` broadcast from the coordinator.

        Abandons messages destined for the dead nodes, blackholes the
        links, and purges half-reassembled inbound messages whose
        sender died — a partial message that can never complete would
        otherwise pin ``incomplete_messages`` above zero and wedge
        quiescence for the rest of the run.
        """
        abandoned = 0
        purged = 0
        for node in nodes:
            abandoned += self.hub.mark_dead(node)
            purged += self.reassembler.abandon_incomplete(
                lambda message, _src=node: message.flow.src == _src
            )
            self.mirror.forget_from(node)
        return {
            "abandoned": abandoned,
            "purged_partials": purged,
            "dead": sorted(self.hub.dead_nodes),
        }

    @property
    def quiet(self) -> bool:
        """No local activity is pending or in flight.

        The live analogue of an empty simulator event queue: nothing in
        the waiting lists, no hold timer, no handshake awaiting a reply,
        every NIC idle, no half-reassembled message, no armed clock
        timer, no bytes the kernel has not accepted, and no partial
        frame in any stream decoder.  Cross-peer bytes still in flight
        are caught by the coordinator's counter-agreement check, not
        here.
        """
        engine = self.engine
        return (
            engine.backlog == 0
            and not engine.hold_timer_armed
            and engine.rendezvous_in_flight == 0
            # A failed rail is quiescent: its in-flight work was released
            # on fail() and the engine re-routed around it.
            and all(nic.idle or nic.failed for nic in self.node.nics)
            and self.reassembler.incomplete_messages == 0
            and self.clock.pending_timers == 0
            and self.hub.writes_in_flight == 0
            and self.hub.in_flight == 0
            and self.hub.buffered_bytes == 0
        )

    def status(self) -> dict[str, Any]:
        """One STATUS reply: quiescence flag plus delivery counters (and,
        with heartbeats on, the age of every peer's last heartbeat)."""
        now = self.clock.refresh()
        out = {
            "type": "status",
            "quiet": self.quiet,
            **{
                key: read(self)
                for key, read, _metric, _help in _TRANSPORT_COUNTERS
                if key in _STATUS_KEYS
            },
            "fatal": self.hub.fatal,
        }
        if self.hub.hb is not None:
            out["hb_ages"] = self.hub.hb.ages(now)
        return out

    def flush(self) -> dict[str, Any]:
        """One FLUSH reply: stream everything captured since the last one.

        Drains the spool (trace events) and snapshots the registry, so
        the coordinator's merged view — and its ``/metrics`` endpoint —
        stay current while the run is in flight.  Once any flush has
        happened the final REPORT only carries the tail, never a
        re-send.
        """
        events = self.spool.drain() if self.spool is not None else []
        # set_total is monotonic, so re-mirroring every flush is safe and
        # keeps the in-flight /metrics view from reading all-zero until
        # the final report.
        self._mirror_live_metrics()
        return {
            "type": "flushed",
            "node": self.local,
            "events": [event_to_dict(e) for e in events],
            "metrics": self.plane.registry.to_snapshot(),
        }

    def _mirror_live_metrics(self) -> None:
        """Mirror live-plane counters (hub, mirror, spool) into the registry.

        The plane's ``finalize`` covers everything a simulated cluster
        has; these are the extra truths only a socket-backed peer knows,
        plus the spool's counts, which change between FLUSHes.
        """
        registry = self.plane.registry
        labels = {"node": self.local}
        for _key, read, metric, text in _TRANSPORT_COUNTERS:
            if metric is not None:
                registry.counter(metric, labels, help=text).set_total(read(self))
        self.plane.mirror_recorder()
        if self.chaos is not None:
            chaos = self.hub.chaos_stats()
            for key, metric, text in (
                ("drops", "repro_chaos_drops_total", "Records dropped"),
                ("corruptions", "repro_chaos_corruptions_total", "Records corrupted"),
                ("duplicates", "repro_chaos_duplicates_total", "Records duplicated"),
                ("disconnects", "repro_chaos_disconnects_total", "Connections closed"),
            ):
                registry.counter(
                    metric, labels, help=f"{text} by the chaos injectors"
                ).set_total(chaos[key])

    def report(self) -> dict[str, Any]:
        """The final REPORT payload: records, counters, apps, trace."""
        cpu_s = time.process_time()  # this peer's CPU up to STOP
        if self.sampler is not None:
            self.sampler.stop()
        self.plane.finalize()
        self._mirror_live_metrics()
        # Rows in MessageRecord field order, the traffic class by value.
        records = [(mid, flow, tc.value, *rest) for mid, flow, tc, *rest in self.metrics.records]
        nics = [
            {
                "name": nic.name,
                **stats_row(nic.stats),
                "modeled_busy_time": nic.modeled_busy_time,
                "drains": nic.drains,
            }
            for nic in self.node.nics
        ]
        apps = []
        for app in self.apps:
            entry: dict[str, Any] = {"name": app.name, "kind": type(app).__name__}
            rtts = getattr(app, "rtts", None)
            if rtts:
                entry["rtts"] = list(rtts)
            apps.append(entry)
        # Trace tail: the events since the coordinator's last FLUSH.
        spool = self.spool
        trace_events = spool.drain() if spool is not None else []
        return {
            "type": "report",
            "node": self.local,
            "now": self.clock.refresh(),
            "cpu_s": cpu_s,
            "cpu_start_s": self.cpu_start_s,
            "records": records,
            "engine": stats_row(self.engine.stats),
            "nics": nics,
            "transport": {
                key: read(self) for key, read, _metric, _help in _TRANSPORT_COUNTERS
            },
            "chaos": self.hub.chaos_stats() if self.chaos is not None else None,
            "apps": apps,
            "trace": [event_to_dict(e) for e in trace_events],
            "trace_dropped": spool.dropped if spool is not None else 0,
            "trace_seen": spool.seen if spool is not None else 0,
            "metrics": self.plane.registry.to_snapshot(),
            "fatal": self.hub.fatal,
        }


# --------------------------------------------------------------------------
# process entry point
# --------------------------------------------------------------------------


def _reply(obj: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _stdin_reader(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line)
    loop.call_soon_threadsafe(queue.put_nowait, None)


async def _control_loop() -> int:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(target=_stdin_reader, args=(loop, queue), daemon=True).start()

    peer: LivePeer | None = None
    while True:
        line = await queue.get()
        if line is None:
            return 0 if peer is None else 2  # coordinator vanished
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            _reply({"type": "error", "error": f"bad control line: {line!r}"})
            continue
        kind = msg.get("type")
        try:
            if kind == "config":
                peer = LivePeer(msg)
                endpoint = await peer.hub.serve(
                    msg.get("transport", "uds"), msg["workdir"]
                )
                # Belt-and-braces self-destruct if the coordinator never
                # gets to STOP (its own watchdog should fire first).
                loop.call_later(peer.timeout * 1.5, os._exit, 3)
                _reply({"type": "ready", "endpoint": endpoint, "node": peer.local})
            elif kind == "mesh":
                assert peer is not None
                endpoints = msg["endpoints"]
                for rank_str, endpoint in endpoints.items():
                    rank = int(rank_str)
                    if rank < peer.rank:
                        await peer.hub.connect(peer.names[rank], endpoint)
                expected = {n for n in peer.names if n != peer.local}
                await asyncio.wait_for(
                    peer.hub.await_mesh(expected), timeout=peer.timeout
                )
                _reply({"type": "mesh_ok"})
            elif kind == "start":
                assert peer is not None
                count = peer.install_apps()
                _reply({"type": "started", "apps": count})
            elif kind == "status":
                assert peer is not None
                _reply(peer.status())
            elif kind == "peer_down":
                assert peer is not None
                result = peer.mark_dead([str(n) for n in msg.get("nodes", [])])
                _reply({"type": "peer_down_ok", **result})
            elif kind == "flush":
                assert peer is not None
                _reply(peer.flush())
            elif kind == "stop":
                assert peer is not None
                _reply(peer.report())
                peer.hub.close()
                return 0
            else:
                _reply({"type": "error", "error": f"unknown control type {kind!r}"})
        except SystemExit:
            raise
        except BaseException:
            _reply({"type": "error", "error": traceback.format_exc()})
            return 1


def main() -> int:
    """Entry point for ``python -m repro.live.peer``."""
    return asyncio.run(_control_loop())


if __name__ == "__main__":
    sys.exit(main())
