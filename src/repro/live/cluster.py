"""Coordinator: spawn N live peers, run a scenario, merge the report.

:func:`run_live_scenario` is the live counterpart of
:func:`repro.runtime.scenario.run_scenario`: same scenario mapping in, a
real :class:`~repro.runtime.metrics.SessionReport` out — except the
engines run in separate OS processes connected by a Unix-domain-socket
(or TCP loopback) mesh, and "the run is over" is detected by
quiescence + counter agreement instead of an empty event queue.

Control flow (JSON lines over each peer's stdin/stdout)::

    CONFIG  -> READY      every peer binds its server socket
    MESH    -> MESH_OK    peers interconnect (rank i dials ranks < i)
    START   -> STARTED    apps installed; traffic begins
    STATUS  (poll)        until: all quiet, Σsubmitted == Σdone_received
                          == Σdone_sent, stable across two polls
    FLUSH   (poll)        with observability on: drain each peer's trace
                          spool + registry snapshot every poll
    PEER_DOWN (broadcast) chaos runs only: a peer declared dead by the
                          watchdog is announced to every survivor
    STOP    -> REPORT     per-peer records/counters; peers exit

With a scenario ``"faults"`` block the run becomes a *chaos run*: wire
faults are injected peer-side under a reliability envelope, and a
:class:`~repro.live.liveness.PeerWatchdog` turns peer death (process
exit, control-channel silence, heartbeat gossip) into graceful
degradation — the dead peer's flows are abandoned cluster-wide, the
counter-agreement check nets out its traffic (per-peer DONE breakdowns
make both sides of the equation subtractable), and the merged report is
marked ``degraded`` with ``lost_messages`` accounting.  Without faults,
any peer death stays an immediate hard error.

The merged report is assembled from receiver-side message records
(each delivered message is recorded exactly once cluster-wide, at its
destination peer); submit/complete timestamps are comparable across
peers because every peer is a child process on this host, stamping
the host clock against the coordinator's epoch.

Beyond the report, the coordinator is the *merge point* of the
distributed observability plane (docs/ARCHITECTURE.md §5.5): it merges
the streamed trace fragments, as the peers recorded them, into one
multi-process trace (:func:`repro.obs.export.merge_events`), folds the
per-peer metric registries into a cluster registry with a ``peer`` label
(:meth:`repro.obs.metrics.MetricsRegistry.merge`), reads its tail view
from one analysis of that trace
(:func:`repro.obs.analyze.tails_payload`) and — with ``serve`` — exposes
``/metrics``, ``/status``, ``/peers`` and ``/tails`` over HTTP while the
run is in flight (:mod:`repro.obs.serve`, the standard library's
threading server, imported only then: peers import this module).
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.live.liveness import DeadPeer, PeerWatchdog
from repro.network.virtual import TrafficClass
from repro.obs.causal import export_blame
from repro.obs.export import merge_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane import SLObjective
from repro.obs.recorder import truncation_marker
from repro.runtime.cluster import refuse
from repro.runtime.metrics import MessageRecord, SessionReport, assemble_report
from repro.runtime.scenario import build_workloads, parse_cluster
from repro.util.errors import ConfigurationError, TransportError
from repro.util.tracing import TraceEvent, event_from_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.analyze import TraceAnalysis
    from repro.obs.serve import ObsHTTPServer

__all__ = ["LiveRunResult", "run_live_scenario", "survivor_agreement"]

_POLL_INTERVAL = 0.02


@dataclass(slots=True)
class LiveRunResult:
    """Everything a live run produced beyond the merged report."""

    report: SessionReport
    records: list[MessageRecord]
    peer_reports: list[dict[str, Any]]
    rtts: list[float] = field(default_factory=list)
    #: The merged trace: every peer's events as recorded, time-sorted
    #: (:func:`~repro.obs.export.merge_events`), plus an
    #: ``obs.truncated`` marker when a peer's spool dropped events.
    aligned_events: list[TraceEvent] = field(default_factory=list)
    #: Cluster-level registry (every peer's metrics, ``peer``-labelled);
    #: None when the run carried no observability.
    cluster_registry: MetricsRegistry | None = None
    #: Cluster tail view (:func:`~repro.obs.analyze.tails_payload` over
    #: the merged trace: exact per-edge latency and per-rail service
    #: tails, SLO burn rates, blame); edges, rails and blame are empty
    #: when the run was not traced.
    tails: dict[str, Any] = field(default_factory=dict)
    #: Peers declared dead mid-run (empty on a clean run).  When
    #: non-empty, ``report.degraded`` is True and the report merges only
    #: the survivors' views.
    dead_peers: list[DeadPeer] = field(default_factory=list)

    @property
    def bytes_verified(self) -> int:
        """Payload bytes that arrived byte-identical to the pattern."""
        return sum(p["transport"]["bytes_verified"] for p in self.peer_reports)

    @property
    def corrupt_slices(self) -> int:
        return sum(p["transport"]["corrupt_slices"] for p in self.peer_reports)

    @property
    def cpu_s(self) -> float:
        """CPU seconds the peers used, each read when it was told to STOP."""
        return sum(p["cpu_s"] for p in self.peer_reports)

    @property
    def traffic_cpu_s(self) -> float:
        """CPU seconds the peers used between START and STOP: no start-up."""
        return sum(p["cpu_s"] - p["cpu_start_s"] for p in self.peer_reports)

    @property
    def socket_writes(self) -> int:
        """``transport.write`` calls the peers made, heartbeats included."""
        return sum(p["transport"]["socket_writes"] for p in self.peer_reports)

    @property
    def done_frames_sent(self) -> int:
        """DONE frames the peers wrote (one per sender per ingested chunk)."""
        return sum(p["transport"]["done_frames_sent"] for p in self.peer_reports)

    @property
    def data_bytes_sent(self) -> int:
        """Engine-data records the peers wrote, envelope included."""
        return sum(p["transport"]["data_bytes_sent"] for p in self.peer_reports)


class _ObsState:
    """What the HTTP server reads of the in-flight run.

    The coordinator's poll loop writes progress here and streams into
    the one :class:`_ObsCollector`; the
    :class:`~repro.obs.serve.ObsHTTPServer` thread reads both under the
    collector's lock, copying streamed state only when a client asks.
    """

    def __init__(
        self,
        scenario_name: str,
        collector: "_ObsCollector",
        objectives: tuple[SLObjective, ...] = (),
    ) -> None:
        self._collector = collector
        self._lock = collector.lock
        self._scenario = scenario_name
        self._objectives = objectives
        self._started = time.time()
        self._status: dict[str, Any] = {"phase": "starting"}
        self._peers: dict[str, Any] = {"dead": [], "alive": []}
        self._analysis_cache: "tuple[int, TraceAnalysis] | None" = None

    def update_status(self, **fields: Any) -> None:
        with self._lock:
            self._status.update(fields)

    def update_peers(self, summary: Mapping[str, Any]) -> None:
        with self._lock:
            self._peers = dict(summary)

    def metrics_text(self) -> str:
        with self._lock:
            per_peer = dict(self._collector.metrics_by_peer)
        return MetricsRegistry.merge(per_peer).to_prometheus()

    def tails(self) -> dict[str, Any]:
        """In-flight cluster tail view for ``GET /tails``: the post-run
        :attr:`LiveRunResult.tails` payload over the events merged so far."""
        from repro.obs.analyze import tails_payload

        return tails_payload(self._analysis(), self._objectives)

    def status(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self._status)
        out["scenario"] = self._scenario
        out["uptime_s"] = time.time() - self._started
        return out

    def peers(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._peers)

    def _analysis(self) -> "TraceAnalysis":
        """One analysis of the events flushed so far.  Cached by total
        event count, so polling between flushes copies nothing."""
        from repro.obs.analyze import analyze_events

        collector = self._collector
        with self._lock:
            total = sum(len(events) for events in collector.events_by_peer.values())
            cached = self._analysis_cache
            if cached is not None and cached[0] == total:
                return cached[1]
            # Shallow copies (events are immutable): the poll loop keeps
            # appending while the pass below runs outside the lock.
            per_peer = {
                node: list(events) for node, events in collector.events_by_peer.items()
            }
        analysis = analyze_events(merge_events(per_peer))
        self._analysis_cache = (total, analysis)
        return analysis


#: Upper bound on one control round-trip.  A healthy peer answers in
#: microseconds; a peer that takes longer than this is wedged (stuck
#: event loop, paging storm) and the caller — watchdog or fail-fast —
#: decides what that means.
_REQUEST_TIMEOUT = 5.0


class _Peer:
    """One spawned peer process + its line protocol, with timeouts.

    A daemon thread drains the peer's stdout into a queue so every
    control request can block *with a deadline* — a wedged or killed
    peer turns into a typed :class:`~repro.util.errors.TransportError`
    carrying its stderr tail, never an indefinite coordinator hang.
    """

    def __init__(self, rank: int, workdir: str, deadline: float) -> None:
        self.rank = rank
        self.deadline = deadline
        self.stderr_path = os.path.join(workdir, f"p{rank}.stderr")
        self._stderr_file = open(self.stderr_path, "wb")
        env = dict(os.environ)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.live.peer"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr_file,
            env=env,
            text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()

    def _drain_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF sentinel

    def request(
        self,
        msg: dict[str, Any],
        timeout: float | None = None,
        expect: str | None = None,
    ) -> dict[str, Any]:
        """Send one control message and block for its response.

        ``timeout`` bounds the wait (default :data:`_REQUEST_TIMEOUT`,
        further clamped to the run deadline).  ``expect`` names the
        reply type to wait for; replies of other types are discarded —
        that is what resynchronizes the channel after an earlier request
        timed out and its late reply is still queued.
        """
        if self.proc.poll() is not None:
            raise TransportError(
                f"peer {self.rank} exited early (rc={self.proc.returncode}): "
                f"{self.stderr_tail()}"
            )
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            raise TransportError(
                f"peer {self.rank} control channel broken "
                f"(rc={self.proc.poll()}): {self.stderr_tail()}"
            ) from None
        return self.read_reply(timeout=timeout, expect=expect)

    def read_reply(
        self, timeout: float | None = None, expect: str | None = None
    ) -> dict[str, Any]:
        """Block for the next control reply (optionally of one type)."""
        budget = _REQUEST_TIMEOUT if timeout is None else timeout
        wait_deadline = min(time.time() + budget, self.deadline + budget)
        while True:
            remaining = wait_deadline - time.time()
            if remaining <= 0:
                raise TransportError(
                    f"peer {self.rank} did not answer within {budget:.1f}s "
                    f"(rc={self.proc.poll()}): {self.stderr_tail()}"
                )
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                if self.proc.poll() is not None and self._lines.empty():
                    raise TransportError(
                        f"peer {self.rank} exited "
                        f"(rc={self.proc.returncode}): {self.stderr_tail()}"
                    ) from None
                continue
            if line is None:
                raise TransportError(
                    f"peer {self.rank} closed its control channel "
                    f"(rc={self.proc.poll()}): {self.stderr_tail()}"
                )
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                raise TransportError(
                    f"peer {self.rank} sent a malformed control line "
                    f"{line!r}: {self.stderr_tail()}"
                ) from None
            if reply.get("type") == "error":
                raise TransportError(
                    f"peer {self.rank} failed: {reply.get('error')}\n"
                    f"stderr: {self.stderr_tail()}"
                )
            if expect is not None and reply.get("type") != expect:
                continue  # stale reply from a timed-out earlier request
            return reply

    def stderr_tail(self, limit: int = 2000) -> str:
        self._stderr_file.flush()
        try:
            with open(self.stderr_path, "rb") as f:
                data = f.read()
            return data[-limit:].decode("utf-8", errors="replace")
        except OSError:
            return "<no stderr captured>"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        self._stderr_file.close()


class _ObsCollector:
    """Coordinator-side accumulator for everything the peers stream.

    Owns the per-peer event streams (FLUSH drains + the REPORT tail),
    the spools' event accounting and the latest per-peer registry
    snapshot; :meth:`merge` turns them into the cluster trace after the
    run.  Every write holds :attr:`lock`, which the ``--serve`` thread
    takes to read (:class:`_ObsState`).
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.events_by_peer: dict[str, list[TraceEvent]] = {}
        self.metrics_by_peer: dict[str, Mapping[str, Any]] = {}
        self.nodes: dict[int, str] = {}
        #: Events the peers' spools saw and dropped (from REPORT).
        self.seen = 0
        self.dropped = 0

    def ingest(self, payload: Mapping[str, Any]) -> None:
        """Absorb one FLUSH reply (``events``) or REPORT payload (``trace``)."""
        node = str(payload["node"])
        wire = payload.get("events") or payload.get("trace") or ()
        events = [event_from_dict(e) for e in wire]
        with self.lock:
            if events:
                self.events_by_peer.setdefault(node, []).extend(events)
            if payload.get("metrics") is not None:
                self.metrics_by_peer[node] = payload["metrics"]
            self.seen += payload.get("trace_seen") or 0
            self.dropped += payload.get("trace_dropped") or 0

    def merge(self) -> list[TraceEvent]:
        """The cluster trace.  It is truncated whenever a peer's spool
        dropped events before a drain, and then ends with the same
        ``obs.truncated`` marker a simulated flight recorder writes, so
        ``obs analyze`` / ``obs why`` warn."""
        merged = merge_events(self.events_by_peer)
        if self.dropped:
            merged.append(truncation_marker(merged, self.seen, self.dropped))
        return merged


# --------------------------------------------------------------------------
# the run, phase by phase
# --------------------------------------------------------------------------


def _validate(scenario: Mapping[str, Any]) -> dict[str, Any]:
    """Reject, before any peer is spawned, what a peer would reject.

    The simulator's reader (:func:`~repro.runtime.scenario.parse_cluster`),
    the live plane's refusals (:func:`~repro.runtime.cluster.refuse`) and
    the workloads, so a bad scenario fails in the simulator's words, not
    as a peer traceback.  Returns the parsed scenario.
    """
    spec = parse_cluster(scenario)
    refuse("live", spec["faults"], spec["observability"])
    build_workloads(scenario)
    return spec


def _alive(peers: list[_Peer], watchdog: PeerWatchdog | None) -> list[_Peer]:
    if watchdog is None:
        return peers
    dead = watchdog.dead
    return [p for p in peers if p.rank not in dead]


def _note_failure(watchdog: PeerWatchdog, peer: _Peer) -> None:
    """Tell the watchdog why a control request to ``peer`` just failed."""
    rc = peer.proc.poll()
    if rc is not None:
        watchdog.note_exit(peer.rank, rc)
    else:
        watchdog.note_control_failure(peer.rank)


def _bring_up(
    peers: list[_Peer], obs: _ObsCollector, config: dict[str, Any], deadline: float
) -> None:
    """CONFIG → READY, MESH → MESH_OK, START → STARTED on every peer."""
    endpoints: dict[int, dict[str, Any]] = {}
    for peer in peers:
        reply = peer.request({**config, "type": "config", "rank": peer.rank})
        endpoints[peer.rank] = reply["endpoint"]
        obs.nodes[peer.rank] = str(reply.get("node", f"n{peer.rank}"))
    # Higher ranks dial lower ranks, so confirm in descending order:
    # rank 0 only has to *accept*, which needs no round-trip first.
    mesh_msg = {"type": "mesh", "endpoints": {str(r): e for r, e in endpoints.items()}}
    for peer in peers:
        assert peer.proc.stdin is not None
        peer.proc.stdin.write(json.dumps(mesh_msg) + "\n")
        peer.proc.stdin.flush()
    for peer in peers:
        peer.read_reply(timeout=max(deadline - time.time(), 1.0), expect="mesh_ok")
    for peer in peers:
        peer.request({"type": "start"}, expect="started")


def _poll_step(
    peers: list[_Peer],
    obs: _ObsCollector,
    watchdog: PeerWatchdog | None,
    flushing: bool,
) -> tuple[dict[int, dict[str, Any] | None], list[str]] | None:
    """One STATUS round (plus deaths and FLUSH) over the peers alive.

    Returns ``(statuses, dead_nodes)`` for :func:`survivor_agreement` —
    a rank that did not answer maps to ``None`` — or ``None`` when a
    peer was declared dead this round: survivors have been told
    (``peer_down``) and counter agreement must restart against the new
    survivor set.
    """
    statuses: dict[int, dict[str, Any] | None] = {}
    for peer in _alive(peers, watchdog):
        try:
            statuses[peer.rank] = peer.request({"type": "status"}, expect="status")
        except TransportError:
            if watchdog is None:
                raise
            _note_failure(watchdog, peer)
            statuses[peer.rank] = None
            continue
        if watchdog is not None:
            watchdog.beat(peer.rank)
    for rank, status in statuses.items():
        if status is not None and status.get("fatal"):
            raise TransportError(
                f"peer {rank} hit a transport fault:\n{status['fatal']}"
            )
    if watchdog is not None:
        # A SIGKILLed peer never fails a request first: reap exits
        # proactively so detection is one poll, not one timeout.
        for peer in _alive(peers, watchdog):
            rc = peer.proc.poll()
            if rc is not None:
                watchdog.note_exit(peer.rank, rc)
        # Worst survivor-reported silence per rank (gossip; the
        # watchdog still requires direct contact loss too).
        rank_of = {node: rank for rank, node in obs.nodes.items()}
        worst: dict[int, float] = {}
        for status in filter(None, statuses.values()):
            for node, age in (status.get("hb_ages") or {}).items():
                rank = rank_of.get(str(node))
                if rank is not None:
                    worst[rank] = max(worst.get(rank, 0.0), float(age))
        for rank, age in worst.items():
            watchdog.note_heartbeat_age(rank, age)
        newly_dead = watchdog.check()
        for dead in newly_dead:
            print(
                f"[repro.live] peer {dead.rank} ({dead.node}) declared "
                f"dead ({dead.reason}, {dead.time_to_detect:.2f}s to "
                f"detect); degrading run",
                file=sys.stderr,
            )
            peers[dead.rank].kill()
            for peer in _alive(peers, watchdog):
                try:
                    peer.request(
                        {"type": "peer_down", "nodes": [dead.node]},
                        expect="peer_down_ok",
                    )
                except TransportError:
                    watchdog.note_control_failure(peer.rank)
        if newly_dead:
            return None
    if flushing:
        for peer in _alive(peers, watchdog):
            try:
                obs.ingest(peer.request({"type": "flush"}, expect="flushed"))
            except TransportError:
                if watchdog is None:
                    raise
                _note_failure(watchdog, peer)
    dead_nodes = (
        sorted(d.node for d in watchdog.dead.values()) if watchdog is not None else []
    )
    return statuses, dead_nodes


def survivor_agreement(
    statuses: Mapping[int, Mapping[str, Any] | None], dead_nodes: Sequence[str]
) -> tuple[tuple, bool]:
    """Counter agreement over the survivors of a (possibly degraded) run.

    ``statuses`` maps every rank believed alive to its STATUS reply, or
    to ``None`` if it did not answer this poll; ``dead_nodes`` names
    the peers declared dead so far.  Returns ``(snapshot, agree)``: the
    sums (compared between polls to see that traffic stopped moving)
    and whether every rank answered and both equations hold —

    1. Every submitted-and-not-abandoned message got exactly one DONE
       back — from whoever received it, dead peers' pre-death DONEs
       included::

           Σ(submitted − abandoned) == Σ done_received

    2. DONE traffic between survivors balances once each side's
       exchanges with the dead are netted out (a DONE sent *to* a dead
       peer was received by nobody alive; a DONE received *from* one
       was sent by nobody alive)::

           Σ(done_sent − Σ_dead done_by_dst[d])
        == Σ(done_received − Σ_dead done_rx_by_src[d])

    With no deaths both collapse to the three-way
    ``submitted == done_received == done_sent`` check.
    """
    answered = [s for s in statuses.values() if s is not None]
    submitted = sum(s["submitted"] - s.get("abandoned", 0) for s in answered)
    done_rx = sum(s["done_received"] for s in answered)
    done_rx_alive = done_rx - sum(
        s.get("done_rx_by_src", {}).get(d, 0) for s in answered for d in dead_nodes
    )
    done_tx_alive = sum(
        s["done_sent"] - sum(s.get("done_by_dst", {}).get(d, 0) for d in dead_nodes)
        for s in answered
    )
    agree = (
        len(answered) == len(statuses)
        and submitted == done_rx
        and done_rx_alive == done_tx_alive
    )
    return (submitted, done_rx, done_rx_alive, done_tx_alive, tuple(dead_nodes)), agree


def _collect(
    peers: list[_Peer],
    watchdog: PeerWatchdog | None,
    deadline: float,
) -> list[dict[str, Any]]:
    """STOP → REPORT from every survivor, then let the peers exit."""
    peer_reports = []
    for peer in _alive(peers, watchdog):
        try:
            peer_reports.append(
                peer.request(
                    {"type": "stop"},
                    timeout=max(deadline - time.time(), 10.0),
                    expect="report",
                )
            )
        except TransportError:
            # A peer that quiesced but died before REPORT: degrade
            # late rather than lose the survivors' reports.
            if watchdog is None:
                raise
            _note_failure(watchdog, peer)
            watchdog.check()
    if not peer_reports:
        raise TransportError(
            "no peer survived to produce a final report: "
            + "; ".join(f"p{p.rank}: {p.stderr_tail(400)!r}" for p in peers)
        )
    for peer in _alive(peers, watchdog):
        try:
            peer.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            peer.kill()
    return peer_reports


def _merge_run(
    peer_reports: list[dict[str, Any]],
    obs: _ObsCollector,
    dead_peers: list[DeadPeer],
    slo_objectives: tuple[SLObjective, ...],
) -> LiveRunResult:
    """The survivors' REPORT payloads into one cluster-wide result."""
    # Imported here, not at the top: peers import this module and never
    # analyze a trace.
    from repro.obs.analyze import analyze_events, tails_payload

    for payload in peer_reports:
        if payload.get("fatal"):
            raise TransportError(
                f"peer {payload['node']} hit a transport fault:\n{payload['fatal']}"
            )
        if payload.get("trace_dropped"):
            print(
                f"[repro.live] warning: peer {payload['node']} dropped "
                f"{payload['trace_dropped']} trace events "
                f"(spool overflow; seen={payload.get('trace_seen', '?')})",
                file=sys.stderr,
            )
        obs.ingest(payload)
    merged = obs.merge()
    if dead_peers and obs.metrics_by_peer:
        # Death accounting lives with the authority that declared it:
        # a pseudo-peer snapshot, so /metrics and obs diff see it with
        # the same peer-labelled shape as everything else.
        coord = MetricsRegistry()
        for dead in dead_peers:
            coord.counter(
                "repro_peer_deaths_total",
                {"reason": dead.reason},
                help="Peers declared dead by the coordinator watchdog",
            ).inc()
            coord.gauge(
                "repro_peer_time_to_detect_seconds",
                {"node": dead.node},
                help="Silence-to-declaration latency per declared death",
            ).set(dead.time_to_detect)
        obs.metrics_by_peer["coordinator"] = coord.to_snapshot()
    cluster_registry = (
        MetricsRegistry.merge(obs.metrics_by_peer) if obs.metrics_by_peer else None
    )

    records = [
        MessageRecord._make((mid, flow, TrafficClass(tc), *rest))
        for p in peer_reports
        for mid, flow, tc, *rest in p["records"]
    ]
    chaos_stats = [p["chaos"] for p in peer_reports if p.get("chaos")]
    duration = 0.0
    if records:
        duration = max(r.complete_time for r in records) - min(
            r.submit_time for r in records
        )
    report = assemble_report(
        records,
        [nic for p in peer_reports for nic in p["nics"]],
        [p["engine"] for p in peer_reports],
        duration=max(duration, 0.0),
        elapsed=max((p["now"] for p in peer_reports), default=0.0) or 1.0,
        retransmits=sum(p["transport"].get("retransmits", 0) for p in peer_reports),
        packets_dropped=sum(c["drops"] for c in chaos_stats),
        packets_corrupted=sum(c["corruptions"] for c in chaos_stats),
        packets_duplicated=sum(c["duplicates"] for c in chaos_stats),
        degraded=bool(dead_peers),
        lost_messages=sum(p["transport"].get("abandoned", 0) for p in peer_reports),
    )

    # Post-run tail view and causal attribution over the merged trace —
    # the coordinator is the only vantage point that sees a sender's
    # submit and the receiver's delivery in one stream.
    tails = tails_payload(analyze_events(merged), slo_objectives)
    if cluster_registry is not None:
        export_blame(tails["blame"]["edges"], cluster_registry)
    return LiveRunResult(
        report=report,
        records=records,
        peer_reports=peer_reports,
        rtts=[
            sample
            for p in peer_reports
            for app in p.get("apps", [])
            for sample in app.get("rtts", [])
        ],
        aligned_events=merged,
        cluster_registry=cluster_registry,
        tails=tails,
        dead_peers=dead_peers,
    )


def run_live_scenario(
    scenario: Mapping[str, Any],
    *,
    transport: str = "uds",
    time_scale: float = 1.0,
    trace: bool = False,
    timeout: float = 60.0,
    serve: str | None = None,
) -> LiveRunResult:
    """Execute a scenario over real sockets; returns the merged result.

    ``transport`` is ``"uds"`` (default: Unix-domain sockets in a private
    tempdir) or ``"tcp"`` (127.0.0.1 ephemeral ports).  ``timeout`` is a
    hard wall-clock bound — if the mesh never quiesces, every peer is
    killed and :class:`~repro.util.errors.TransportError` is raised with
    peer stderr excerpts.  The scenario's ``"run"`` block (virtual-time
    horizon) is ignored: a live run ends when traffic drains.

    The scenario's ``"observability"`` block means what it means to the
    simulator (``trace=True`` turns its ``trace`` on, and adds the
    block if there is none); with tracing on, each peer's spool is
    drained every poll and the result carries one merged trace, and the
    block's ``slo`` objectives are evaluated over it into
    ``tails["slo"]``.
    ``serve`` (``"PORT"``/``":PORT"``/``"HOST:PORT"``) additionally
    exposes live cluster ``/metrics`` (Prometheus text), ``/status``
    (JSON), ``/peers`` (liveness) and ``/tails`` (tail-latency view, with
    the causal attribution under ``"blame"``) for the duration of the run.

    A scenario ``"faults"`` block arms chaos injection *and* the
    coordinator watchdog: peers that die mid-run are declared dead,
    announced to survivors (``peer_down``), and the run completes with
    ``report.degraded`` set instead of raising.
    """
    if transport not in ("uds", "tcp"):
        raise ConfigurationError(f"live transport must be 'uds' or 'tcp', got {transport!r}")
    block = scenario.get("observability")
    if trace and (block is None or isinstance(block, Mapping)):
        scenario = {**scenario, "observability": {**(block or {}), "trace": True}}
    spec = _validate(scenario)
    n_nodes, chaos, obs_config = spec["n_nodes"], spec["faults"], spec["observability"]
    slo_objectives = obs_config.slo if obs_config is not None else ()
    # Serving live metrics needs registry snapshots flowing even when
    # nobody asked for trace events; flushing is cheap either way.
    flushing = (obs_config is not None and obs_config.trace) or serve is not None

    serve_host: str | None = None
    serve_port = 0
    if serve is not None:
        # Only here: peers import this module and must not load http.server.
        from repro.obs.serve import ObsHTTPServer, parse_serve_address

        serve_host, serve_port = parse_serve_address(serve)

    # Keep UDS paths short: sun_path is limited to ~104 bytes.
    workdir = tempfile.mkdtemp(prefix="rlive-", dir="/tmp")
    deadline = time.time() + timeout
    peers: list[_Peer] = []
    server: "ObsHTTPServer | None" = None
    try:
        # Append as we spawn: if a later _Peer fails to construct, the
        # finally-sweep still kills the children already forked.
        for rank in range(n_nodes):
            peers.append(_Peer(rank, workdir, deadline))
        epoch = time.time()
        obs = _ObsCollector()
        obs_state = _ObsState(str(scenario.get("name", "live")), obs, slo_objectives)
        if serve_host is not None:
            routes = {
                "/metrics": obs_state.metrics_text,
                "/status": obs_state.status,
                "/peers": obs_state.peers,
                "/tails": obs_state.tails,
            }
            server = ObsHTTPServer(routes, host=serve_host, port=serve_port).start()
            print(
                f"[repro.live] serving {', '.join(routes)} on {server.address}",
                file=sys.stderr,
            )
        _bring_up(
            peers,
            obs,
            {
                "n_nodes": n_nodes,
                "epoch": epoch,
                "time_scale": time_scale,
                "transport": transport,
                "workdir": workdir,
                "timeout": timeout,
                "scenario": dict(scenario),
            },
            deadline,
        )
        obs_state.update_status(phase="running", peers=len(peers))

        # The watchdog only arms under chaos: a clean run keeps the old
        # fail-fast contract (any peer death is an immediate error), a
        # chaos run degrades instead of dying with its peers.
        watchdog: PeerWatchdog | None = None
        if chaos is not None:
            watchdog = PeerWatchdog(dict(obs.nodes), dead_after=chaos.dead_after)

        previous: tuple | None = None
        stable = 0
        while True:
            if time.time() > deadline:
                tails = "; ".join(
                    f"p{p.rank}: {p.stderr_tail(400)!r}"
                    for p in _alive(peers, watchdog)
                )
                raise TransportError(
                    f"live run exceeded its {timeout}s wall-clock budget "
                    f"without quiescing ({tails})"
                )
            polled = _poll_step(peers, obs, watchdog, flushing)
            if polled is None:
                previous = None
                stable = 0
                continue
            statuses, dead_nodes = polled
            snapshot, agree = survivor_agreement(statuses, dead_nodes)
            quiet = all(s is not None and s["quiet"] for s in statuses.values())
            submitted, done_rx, _, done_tx_alive, _ = snapshot
            obs_state.update_status(
                submitted=submitted, done_received=done_rx, done_sent=done_tx_alive,
                quiet=quiet, dead=dead_nodes,
            )
            obs_state.update_peers(
                watchdog.summary() if watchdog is not None
                else {"dead": [], "alive": [p.rank for p in peers]}
            )
            if quiet and agree and snapshot == previous:
                stable += 1
                if stable >= 2:
                    break
            else:
                stable = 0
            previous = snapshot
            time.sleep(_POLL_INTERVAL)

        obs_state.update_status(phase="stopping")
        peer_reports = _collect(peers, watchdog, deadline)
        dead_peers = list(watchdog.dead.values()) if watchdog is not None else []
    finally:
        for peer in peers:
            peer.kill()
        if server is not None:
            obs_state.update_status(phase="done")
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return _merge_run(peer_reports, obs, dead_peers, slo_objectives)
