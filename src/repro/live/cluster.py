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
peers because every clock shares the coordinator's epoch.

Beyond the report, the coordinator is the *merge point* of the
distributed observability plane (docs/ARCHITECTURE.md §13): it brackets
every control round-trip to estimate per-peer clock offsets, aligns and
merges the streamed trace fragments into one multi-process trace
(:mod:`repro.obs.merge`), folds the per-peer metric registries into a
cluster registry with a ``peer`` label, and — with ``serve`` — exposes
``/metrics`` and ``/status`` over HTTP while the run is in flight.
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
from typing import Any, Mapping, Sequence

from repro.live.chaos import ChaosConfig
from repro.live.liveness import DeadPeer, PeerWatchdog
from repro.obs.causal import attribute_events, export_blame
from repro.obs.merge import (
    MergedTrace,
    OffsetSample,
    aggregate_registries,
    align_events,
    correct_edge_sketches,
    estimate_offsets,
    extract_crossings,
    merge_registries,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tails import (
    SLObjective,
    TailView,
    parse_slo,
    pooled_message_sketch,
)
from repro.obs.serve import ObsHTTPServer, parse_serve_address
from repro.runtime.cluster import Cluster, check_topology
from repro.runtime.metrics import MessageRecord, SessionReport, assemble_report
from repro.runtime.scenario import build_workloads, parse_cluster
from repro.util.errors import ConfigurationError, TransportError
from repro.util.tracing import TraceEvent, event_to_dict

__all__ = ["LiveRunResult", "run_live_scenario", "survivor_agreement"]

_POLL_INTERVAL = 0.02


@dataclass(slots=True)
class LiveRunResult:
    """Everything a live run produced beyond the merged report."""

    report: SessionReport
    records: list[MessageRecord]
    peer_reports: list[dict[str, Any]]
    #: Aligned, merged trace events as JSON-able dicts (time-sorted).
    trace_events: list[dict[str, Any]] = field(default_factory=list)
    rtts: list[float] = field(default_factory=list)
    #: Same events as :class:`~repro.util.tracing.TraceEvent` objects.
    aligned_events: list[TraceEvent] = field(default_factory=list)
    #: Per-peer clock offsets applied during the merge (node -> seconds).
    offsets: dict[str, float] = field(default_factory=dict)
    #: Correlated wire crossings found / clamped during alignment.
    crossings_matched: int = 0
    crossings_clamped: int = 0
    #: Cluster-level registry (every peer's metrics, ``peer``-labelled);
    #: None when the run carried no observability.
    cluster_registry: MetricsRegistry | None = None
    #: Offset-corrected cluster tail view (``TailView.snapshot()`` shape:
    #: per-edge/per-rail/per-node p50..p999 plus SLO burn rates); empty
    #: when the run carried no observability.
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
    def done_frames_sent(self) -> int:
        """DONE frames the peers wrote (one per sender per ingested chunk)."""
        return sum(p["transport"]["done_frames_sent"] for p in self.peer_reports)


class _ObsState:
    """Thread-safe snapshot of the in-flight run the HTTP server reads.

    The coordinator's poll loop owns the write side; the
    :class:`~repro.obs.serve.ObsHTTPServer` thread calls
    :meth:`metrics_text`/:meth:`status` whenever a client asks.
    """

    def __init__(
        self,
        scenario_name: str,
        objectives: tuple[SLObjective, ...] = (),
    ) -> None:
        self._lock = threading.Lock()
        self._scenario = scenario_name
        self._objectives = objectives
        self._started = time.time()
        self._metrics_by_peer: dict[str, Mapping[str, Any]] = {}
        self._status: dict[str, Any] = {"phase": "starting"}
        self._peers: dict[str, Any] = {"dead": [], "alive": []}
        self._events_by_peer: dict[str, list[TraceEvent]] = {}
        self._offset_samples: list[OffsetSample] = []
        self._why_cache: tuple[int, dict[str, Any]] | None = None

    def update_metrics(self, node: str, snapshot: Mapping[str, Any]) -> None:
        with self._lock:
            self._metrics_by_peer[node] = snapshot

    def update_status(self, **fields: Any) -> None:
        with self._lock:
            self._status.update(fields)

    def update_peers(self, summary: Mapping[str, Any]) -> None:
        with self._lock:
            self._peers = dict(summary)

    def update_events(
        self,
        events_by_peer: Mapping[str, list[TraceEvent]],
        samples: list[OffsetSample],
    ) -> None:
        """Snapshot the streamed-so-far trace for the ``/why`` route.

        Shallow copies (events are immutable) taken under the lock so
        the HTTP thread never observes the poll loop mid-append.
        """
        with self._lock:
            self._events_by_peer = {
                node: list(events) for node, events in events_by_peer.items()
            }
            self._offset_samples = list(samples)

    def metrics_text(self) -> str:
        with self._lock:
            per_peer = dict(self._metrics_by_peer)
        return merge_registries(per_peer).to_prometheus()

    def tails(self) -> dict[str, Any]:
        """In-flight cluster tail view for ``GET /tails``.

        Aggregates the latest per-peer sketch snapshots (series never
        collide across peers — edge sketches live at the receiver, rail
        and message sketches carry the owning node in their labels).
        Mid-run edge latencies are *raw-clock* differences; the exact
        offset-corrected view is the post-run :attr:`LiveRunResult.tails`.
        """
        with self._lock:
            per_peer = dict(self._metrics_by_peer)
        view = TailView(
            aggregate_registries(per_peer.values()), self._objectives
        )
        payload = view.snapshot()
        payload["note"] = "mid-run edge latencies are raw-clock (uncorrected)"
        return payload

    def status(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self._status)
        out["scenario"] = self._scenario
        out["uptime_s"] = time.time() - self._started
        return out

    def peers(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._peers)

    def why(self) -> dict[str, Any]:
        """In-flight causal-attribution view for ``GET /why``.

        Attributes the events flushed so far, aligned with the clock
        offsets estimable at this point of the run; the exact post-run
        view is ``LiveRunResult.tails["blame"]``.  Cached by total
        event count, so polling between flushes costs nothing.
        """
        with self._lock:
            per_peer = {
                node: list(events)
                for node, events in self._events_by_peer.items()
            }
            samples = list(self._offset_samples)
        total = sum(len(events) for events in per_peer.values())
        cached = self._why_cache
        if cached is not None and cached[0] == total:
            return cached[1]
        crossings = extract_crossings(per_peer)
        offsets = estimate_offsets(samples, crossings, peers=per_peer.keys())
        merged = align_events(per_peer, offsets)
        report = attribute_events(merged.events)
        payload = {
            "note": "mid-run view over flushed events; exact post-run "
            "blame is in the run result",
            "messages": len(report.messages),
            "incomplete": report.incomplete,
            "edges": report.edges(),
            "slowest": [b.to_dict() for b in report.slowest(5)],
        }
        self._why_cache = (total, payload)
        return payload


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


def _event_from_wire(payload: Mapping[str, Any]) -> TraceEvent:
    """One streamed trace event back into its in-memory shape."""
    return TraceEvent(
        time=float(payload["time"]),
        source=str(payload["source"]),
        kind=str(payload["kind"]),
        detail=dict(payload.get("detail") or {}),
    )


class _ObsCollector:
    """Coordinator-side accumulator for everything the peers stream.

    Owns the offset samples (from bracketed control round-trips), the
    per-peer event streams (FLUSH drains + the REPORT tail) and the
    latest per-peer registry snapshot; :meth:`merge` turns them into the
    aligned cluster view after the run.
    """

    def __init__(self, epoch: float, time_scale: float) -> None:
        self._epoch = epoch
        self._scale = time_scale
        self.samples: list[OffsetSample] = []
        self.events_by_peer: dict[str, list[TraceEvent]] = {}
        self.metrics_by_peer: dict[str, Mapping[str, Any]] = {}
        self.exemplars_by_peer: dict[str, Mapping[str, Any]] = {}
        self.nodes: dict[int, str] = {}

    def timed_request(
        self,
        peer: _Peer,
        msg: dict[str, Any],
        timeout: float | None = None,
        expect: str | None = None,
    ) -> dict[str, Any]:
        """A control round-trip that doubles as a clock-offset probe.

        Any reply carrying ``now`` (STATUS, FLUSH, REPORT) yields one
        :class:`~repro.obs.merge.OffsetSample`; coordinator wall time is
        mapped onto the shared virtual timeline the same way the peers'
        clocks are (seconds past the epoch, divided by the time scale).
        """
        t0 = time.time()
        reply = peer.request(msg, timeout=timeout, expect=expect)
        t1 = time.time()
        now = reply.get("now")
        node = self.nodes.get(peer.rank)
        if now is not None and node is not None:
            self.samples.append(
                OffsetSample(
                    peer=node,
                    t0=(t0 - self._epoch) / self._scale,
                    t1=(t1 - self._epoch) / self._scale,
                    peer_now=float(now),
                )
            )
        return reply

    def ingest(self, payload: Mapping[str, Any]) -> None:
        """Absorb one FLUSH reply (``events``) or REPORT payload (``trace``)."""
        node = str(payload["node"])
        events = payload.get("events") or payload.get("trace")
        if events:
            bucket = self.events_by_peer.setdefault(node, [])
            bucket.extend(_event_from_wire(e) for e in events)
        if payload.get("metrics") is not None:
            self.metrics_by_peer[node] = payload["metrics"]
        if payload.get("exemplars") is not None:
            self.exemplars_by_peer[node] = payload["exemplars"]

    def merge(self) -> MergedTrace:
        crossings = extract_crossings(self.events_by_peer)
        offsets = estimate_offsets(
            self.samples, crossings, peers=self.events_by_peer.keys()
        )
        return align_events(self.events_by_peer, offsets)


# --------------------------------------------------------------------------
# the run, phase by phase
# --------------------------------------------------------------------------


def _validate(
    scenario: Mapping[str, Any], trace: bool
) -> tuple[int, ChaosConfig | None]:
    """Reject, before any peer is spawned, what a peer would reject.

    The cluster block and the workloads go through the simulator's own
    parsers, and a ``tuner`` block installs on a throwaway simulated
    cluster — or refuses to — as it would on every peer, so a bad
    scenario fails here with the simulator's words instead of as a peer
    traceback.  Returns ``(n_nodes, chaos)`` — the coordinator needs the
    failure-detection budget before it forks.
    """
    spec = parse_cluster(scenario)
    check_topology(spec["n_nodes"], spec["networks"], spec["engine"])
    chaos: ChaosConfig | None = None
    if scenario.get("faults"):
        chaos = ChaosConfig.from_spec(
            dict(scenario["faults"]), default_seed=int(spec["seed"])
        )
        if chaos.die is not None and chaos.die.rank >= spec["n_nodes"]:
            raise ConfigurationError(
                f"faults die rank {chaos.die.rank} >= n_nodes {spec['n_nodes']}"
            )
    build_workloads(scenario)
    if scenario.get("tuner") is not None:
        Cluster(**spec, observability={"trace": trace}, tuner=scenario["tuner"])
    return spec["n_nodes"], chaos


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
            statuses[peer.rank] = obs.timed_request(
                peer, {"type": "status"}, expect="status"
            )
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
                obs.ingest(
                    obs.timed_request(peer, {"type": "flush"}, expect="flushed")
                )
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
    obs: _ObsCollector,
    watchdog: PeerWatchdog | None,
    deadline: float,
) -> list[dict[str, Any]]:
    """STOP → REPORT from every survivor, then let the peers exit."""
    peer_reports = []
    for peer in _alive(peers, watchdog):
        try:
            peer_reports.append(
                obs.timed_request(
                    peer,
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
    trace_on: bool,
    slo_objectives: tuple[SLObjective, ...],
) -> LiveRunResult:
    """The survivors' REPORT payloads into one cluster-wide result."""
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
    aligned = list(merged.events)
    # The merged trace is truncated whenever any peer's spool evicted
    # events before a drain; mark it the same way the sim flight
    # recorder marks its exports so obs analyze / obs why warn loudly.
    spool_dropped = sum(p.get("trace_dropped") or 0 for p in peer_reports)
    if spool_dropped:
        aligned.append(
            TraceEvent(
                time=aligned[-1].time if aligned else 0.0,
                source="obs:coordinator",
                kind="obs.truncated",
                detail={
                    "seen": sum(p.get("trace_seen") or 0 for p in peer_reports),
                    "dropped": spool_dropped,
                    "capacity": None,
                },
            )
        )
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
            coord.histogram(
                "repro_peer_time_to_detect_seconds",
                help="Silence-to-declaration latency per declared death",
                base=0.01, growth=2.0, n_buckets=16,
            ).observe(dead.time_to_detect)
        obs.metrics_by_peer["coordinator"] = coord.to_snapshot()
    cluster_registry = (
        merge_registries(obs.metrics_by_peer) if obs.metrics_by_peer else None
    )
    # Post-run tail view: collapse the per-peer sketches into cluster
    # series, then apply the estimated clock offsets to the edge
    # sketches — exact, because every sample on a directed edge needs
    # the same constant correction (see correct_edge_sketches).
    tails: dict[str, Any] = {}
    report_tails: dict[str, float] = {}
    if obs.metrics_by_peer:
        aggregated = aggregate_registries(obs.metrics_by_peer.values())
        corrected = correct_edge_sketches(aggregated, merged.offsets)
        tails = TailView(aggregated, slo_objectives).snapshot()
        tails["edges_offset_corrected"] = corrected
        # The report's tail columns come from the pooled message-latency
        # sketch (all nodes merged), same source the sim plane uses.
        pooled = pooled_message_sketch(aggregated)
        if pooled is not None:
            report_tails = {
                "latency_p99_us": pooled.quantile(0.99),
                "latency_p999_us": pooled.quantile(0.999),
            }

    records = [MessageRecord.from_dict(r) for p in peer_reports for r in p["records"]]
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
        **report_tails,
    )

    # Post-run causal attribution over the offset-corrected merged
    # trace — the coordinator is the only vantage point that sees a
    # sender's submit and the receiver's delivery in one stream.
    if trace_on:
        blame_report = attribute_events(aligned)
        if blame_report.messages or obs.exemplars_by_peer:
            blame_edges = blame_report.edges()
            tails["blame"] = {
                "messages": len(blame_report.messages),
                "incomplete": blame_report.incomplete,
                "truncated": blame_report.truncated,
                "edges": blame_edges,
                "slowest": [b.to_dict() for b in blame_report.slowest(5)],
                "peer_exemplars": dict(obs.exemplars_by_peer),
            }
            if cluster_registry is not None:
                export_blame(blame_edges, cluster_registry)
    return LiveRunResult(
        report=report,
        records=records,
        peer_reports=peer_reports,
        trace_events=[event_to_dict(e) for e in aligned],
        rtts=[
            sample
            for p in peer_reports
            for app in p.get("apps", [])
            for sample in app.get("rtts", [])
        ],
        aligned_events=aligned,
        offsets=merged.offsets,
        crossings_matched=merged.crossings_matched,
        crossings_clamped=merged.crossings_clamped,
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
    observability: Mapping[str, Any] | None = None,
    serve: str | None = None,
) -> LiveRunResult:
    """Execute a scenario over real sockets; returns the merged result.

    ``transport`` is ``"uds"`` (default: Unix-domain sockets in a private
    tempdir) or ``"tcp"`` (127.0.0.1 ephemeral ports).  ``timeout`` is a
    hard wall-clock bound — if the mesh never quiesces, every peer is
    killed and :class:`~repro.util.errors.TransportError` is raised with
    peer stderr excerpts.  The scenario's ``"run"`` block (virtual-time
    horizon) is ignored: a live run ends when traffic drains.

    ``observability`` is an :class:`~repro.obs.plane.ObservabilityConfig`
    spec shipped to every peer (``trace=True`` is shorthand for
    ``{"trace": True}``); with tracing on, each peer's spool is drained
    every poll and the result carries one aligned merged trace.
    ``serve`` (``"PORT"``/``":PORT"``/``"HOST:PORT"``) additionally
    exposes live cluster ``/metrics`` (Prometheus text), ``/status``
    (JSON), ``/peers`` (liveness), ``/tails`` (tail-latency view) and
    ``/why`` (causal attribution) for the duration of the run.

    A scenario ``"faults"`` block arms chaos injection *and* the
    coordinator watchdog: peers that die mid-run are declared dead,
    announced to survivors (``peer_down``), and the run completes with
    ``report.degraded`` set instead of raising.
    """
    if transport not in ("uds", "tcp"):
        raise ConfigurationError(f"live transport must be 'uds' or 'tcp', got {transport!r}")
    obs_spec = dict(observability or {})
    if trace:
        obs_spec.setdefault("trace", True)
    trace_on = bool(obs_spec.get("trace"))
    n_nodes, chaos = _validate(scenario, trace_on)

    # Validate SLO objectives before any peer is spawned (peers re-parse
    # their own copy); the coordinator needs them for /tails and the
    # post-run burn-rate verdicts.
    slo_objectives = parse_slo(obs_spec.get("slo"))
    # Serving live metrics needs registry snapshots flowing even when
    # nobody asked for trace events; flushing is cheap either way.
    flushing = trace_on or serve is not None

    serve_host: str | None = None
    serve_port = 0
    if serve is not None:
        serve_host, serve_port = parse_serve_address(serve)

    # Keep UDS paths short: sun_path is limited to ~104 bytes.
    workdir = tempfile.mkdtemp(prefix="rlive-", dir="/tmp")
    deadline = time.time() + timeout
    peers: list[_Peer] = []
    server: ObsHTTPServer | None = None
    obs_state = _ObsState(str(scenario.get("name", "live")), slo_objectives)
    try:
        # Append as we spawn: if a later _Peer fails to construct, the
        # finally-sweep still kills the children already forked.
        for rank in range(n_nodes):
            peers.append(_Peer(rank, workdir, deadline))
        epoch = time.time()
        obs = _ObsCollector(epoch, time_scale)
        if serve_host is not None:
            server = ObsHTTPServer(
                obs_state.metrics_text, obs_state.status, obs_state.peers,
                obs_state.tails, obs_state.why,
                host=serve_host, port=serve_port,
            )
            server.start()
            print(
                f"[repro.live] serving /metrics, /status, /peers, /tails "
                f"and /why on {server.address}",
                file=sys.stderr,
            )
        _bring_up(
            peers,
            obs,
            {
                "n_nodes": n_nodes,
                "epoch": epoch,
                "time_scale": time_scale,
                "trace": trace_on,
                "observability": obs_spec,
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
            if server is not None:
                for node, snapshot in obs.metrics_by_peer.items():
                    obs_state.update_metrics(node, snapshot)
                if trace_on:
                    obs_state.update_events(obs.events_by_peer, obs.samples)
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
        peer_reports = _collect(peers, obs, watchdog, deadline)
        dead_peers = list(watchdog.dead.values()) if watchdog is not None else []
    finally:
        for peer in peers:
            peer.kill()
        if server is not None:
            obs_state.update_status(phase="done")
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return _merge_run(peer_reports, obs, dead_peers, trace_on, slo_objectives)
