"""The optimizer–scheduler engine (the middle layer of Figure 1).

:class:`CommEngineBase` holds everything both engines share — waiting
lists, dispatch mechanics, the rendezvous protocol state machine —
while :class:`OptimizingEngine` adds the paper's activation discipline:

* the application ``submit_message``\\ s and *immediately returns to
  computing*; packets pile up in the waiting lists;
* the scheduler runs when a NIC becomes **idle** (``nic.on_idle``), not
  per submission — while a NIC is busy, the backlog (lookahead pool)
  grows and aggregation opportunities widen;
* if every NIC is idle when work arrives, the engine pumps immediately
  ("send packets as they become available"), possibly holding small
  backlogs for a Nagle-style delay when so configured.

The deterministic Madeleine-3 baseline reuses the same base class; see
:mod:`repro.baseline.legacy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.channels import ChannelPolicy, PooledChannels
from repro.core.config import EngineConfig
from repro.core.constraints import ConstraintChecker
from repro.core.cost import CostModel
from repro.core.plan import Hold, TransferPlan
from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.base import Strategy
from repro.core.waiting import ChannelQueue, WaitingLists
from repro.drivers.base import Driver
from repro.madeleine.message import Message
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.fabric import Node
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim.engine import Simulator
from repro.sim.event import Event
from repro.util.errors import ConfigurationError, InternalError, ProtocolError

__all__ = ["EngineStats", "CommEngineBase", "OptimizingEngine"]


@dataclass(slots=True)
class EngineStats:
    """Cumulative engine counters (per node)."""

    messages_submitted: int = 0
    entries_enqueued: int = 0
    activations: dict[str, int] = field(default_factory=dict)
    dispatches: int = 0
    packets_by_kind: dict[str, int] = field(default_factory=dict)
    payload_bytes: int = 0
    data_packets: int = 0
    data_segments: int = 0
    aggregated_packets: int = 0
    holds: int = 0
    rdv_parked: int = 0
    rdv_ready: int = 0
    rdv_timeouts: int = 0
    acks_sent: int = 0
    failovers: int = 0

    @property
    def aggregation_ratio(self) -> float:
        """Mean payload segments per data packet (1.0 = no aggregation)."""
        return self.data_segments / self.data_packets if self.data_packets else 0.0


class CommEngineBase:
    """Shared mechanics: waiting lists, dispatch, rendezvous protocol."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        drivers: Iterable[Driver],
        *,
        strategy: Strategy | None = None,
        policy: ChannelPolicy | None = None,
        config: EngineConfig | None = None,
        cost: CostModel | None = None,
        checker: ConstraintChecker | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.node_name = node.name
        self.drivers: list[Driver] = list(drivers)
        if not self.drivers:
            raise ConfigurationError(f"engine on {node.name!r} needs at least one driver")
        for driver in self.drivers:
            if driver.nic not in node.nics:
                raise ConfigurationError(
                    f"driver {driver.name!r} is not attached to node {node.name!r}"
                )
        self.strategy = strategy if strategy is not None else AggregationStrategy()
        self.policy = policy if policy is not None else PooledChannels()
        self.config = config if config is not None else EngineConfig()
        self.cost = cost if cost is not None else CostModel()
        self.checker = checker if checker is not None else ConstraintChecker()
        self.waiting = WaitingLists()
        self.stats = EngineStats()

        self._driver_index = {id(d): i for i, d in enumerate(self.drivers)}
        self._rdv_pending: dict[int, tuple[SubmitEntry, int]] = {}
        self._rdv_timers: dict[int, Event] = {}
        self._rdv_abandoned: set[int] = set()
        self._recv_credits: dict[int | None, int] = {}
        self._deferred_reqs: dict[int | None, list[WirePacket]] = {}
        self._granted_messages: set[int] = set()
        self._ack_delay = min(d.caps.rdv_ack_delay for d in self.drivers)
        self._enqueue_epoch = 0
        self._pumping = False
        self._hold_timer: Event | None = None
        self._hold_wake = float("inf")
        #: ``(release_bytes, release_pending, rails)``, the tightest Hold of a
        #: pump where every idle rail only held; the next pump or kick clears it.
        self._standing: tuple[float, float, int] | None = None
        #: Read-only tail statistics, set by the observability plane at
        #: install time (None without a plane that records tails).
        #: Consulted on the tracing-gated decide-record path, and by the
        #: rail selector when a ``tuner`` block installs one.
        self.tail_view = None
        #: Optional driver-iteration reorderer (``order(drivers)``),
        #: installed by the tuner's tail-acting rail selection.  None —
        #: the default — iterates ``self.drivers`` exactly as built, so
        #: dispatch without a selector is byte-identical to before the
        #: hook existed.
        self.rail_selector = None

        self.policy.setup(node.channels, min(d.caps.max_channels for d in self.drivers))
        self.policy.bind(self)
        for driver in self.drivers:
            driver.nic.on_idle(self._nic_idle)
            driver.nic.on_fail(self._nic_failed)
            driver.nic.on_recover(self._nic_recovered)
        node.receiver.register_control_handler(PacketKind.RDV_REQ, self._handle_rdv_req)
        node.receiver.register_control_handler(PacketKind.RDV_ACK, self._handle_rdv_ack)

    # ------------------------------------------------------------------
    # collect layer: the packing API lands here
    # ------------------------------------------------------------------
    def submit_message(self, message: Message) -> None:
        """Accept a flushed message; enqueue one entry per fragment."""
        now = self.sim.now
        message.mark_flushed(now)
        self.stats.messages_submitted += 1
        for fragment in message.fragments:
            entry = SubmitEntry(
                EntryKind.DATA,
                message.flow.dst,
                now,
                fragment=fragment,
                flow=message.flow,
            )
            self._enqueue(entry)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                now,
                f"engine:{self.node_name}",
                "collect.enqueue",
                message=message.message_id,
                flow=message.flow.name,
                dst=message.flow.dst,
                fragments=len(message.fragments),
                bytes=message.total_size,
            )
        self._after_submit()

    def _enqueue(self, entry: SubmitEntry) -> None:
        channel_id = self.policy.channel_for_entry(entry)
        self.waiting.enqueue(entry, channel_id)
        self.stats.entries_enqueued += 1
        self._enqueue_epoch += 1

    # ------------------------------------------------------------------
    # activation hooks (subclasses define the discipline)
    # ------------------------------------------------------------------
    def _after_submit(self) -> None:
        raise NotImplementedError

    def _nic_idle(self, nic) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # rail outages (multirail failover)
    # ------------------------------------------------------------------
    def _nic_failed(self, nic) -> None:
        """A rail went down: re-route its traffic onto the survivors.

        With pooled binding nothing needs migrating — the surviving NICs
        already drain every queue; with static binding ``queues_for``
        remaps the dead rail's channels onto the alive drivers.  Either
        way the policy gets a chance to rebalance and the survivors are
        kicked so backlog bound for the dead rail starts moving now
        rather than at their next natural idle transition.
        """
        self.stats.failovers += 1
        self.policy.note_rail_event(self, nic, up=False)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "engine.failover",
                nic=nic.name,
                survivors=sum(1 for d in self.drivers if not d.nic.failed),
            )
        self._kick("rail-down")

    def _nic_recovered(self, nic) -> None:
        """A rail came back: let the policy rebalance and resume on it."""
        self.policy.note_rail_event(self, nic, up=True)
        self._kick("rail-up")

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def queues_for(self, driver: Driver) -> list[ChannelQueue]:
        """Non-empty channel queues this driver may serve, in service order.

        Static rail binding partitions channels over the *alive* drivers
        only: when a rail dies its channels remap onto the survivors
        (multirail failover), and with every rail up the mapping is the
        original ``channel_id % n_drivers`` partition.
        """
        queues = list(self.waiting.non_empty())
        if self.config.rail_binding == "static" and len(self.drivers) > 1:
            alive = [d for d in self.drivers if not d.nic.failed]
            if driver.nic.failed or not alive:
                return []
            n = len(alive)
            index = alive.index(driver)
            queues = [q for q in queues if q.channel_id % n == index]
        return self.policy.service_order(queues)

    def _activate(self, trigger: str) -> None:
        """Count one optimizer activation by its trigger and trace it."""
        activations = self.stats.activations
        activations[trigger] = activations.get(trigger, 0) + 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "optimizer.activate",
                trigger=trigger,
                backlog=self.waiting.total_pending,
            )

    def _pump(self, trigger: str) -> None:
        """Feed every idle NIC until strategies run out of plans."""
        if self._pumping:
            return
        self._standing = None
        self._activate(trigger)
        selector = self.rail_selector
        drivers = self.drivers if selector is None else selector.order(self.drivers)
        waiting = self.waiting
        tracer = self.sim.tracer
        stats = self.stats
        release_bytes = release_pending = float("inf")
        rails = 0  # rails that held
        held_only = True  # no rail sent, none had nothing to send
        self._pumping = True
        try:
            for driver in drivers:
                # An empty backlog leaves nothing to ask a rail about.
                while waiting.total_pending and driver.idle:
                    epoch = self._enqueue_epoch
                    decision = self.strategy.make_plan(self, driver)
                    if isinstance(decision, TransferPlan):
                        if tracer.enabled:
                            self._emit_decide(decision, tracer)
                        self._dispatch(decision)
                        held_only = False
                    elif isinstance(decision, Hold):
                        stats.holds += 1
                        self._arm_hold(decision.wake_at)
                        release_bytes = min(release_bytes, decision.release_bytes)
                        release_pending = min(release_pending, decision.release_pending)
                        rails += 1
                        # The held walk parked an entry: a handshake now waits.
                        held_only = held_only and self._enqueue_epoch == epoch
                        break
                    else:
                        if self._enqueue_epoch != epoch:
                            continue  # planning parked work; re-plan
                        held_only = False
                        break
        finally:
            self._pumping = False
        # A policy whose service order counts its calls must see every pump.
        if rails and held_only and self.policy.stable_service_order:
            self._standing = (release_bytes, release_pending, rails)

    def _emit_decide(self, plan: TransferPlan, tracer) -> None:
        """One ``optimizer.decide`` record per dispatch (tracing only).

        Emitted *before* :meth:`_dispatch` consumes the plan's entries so
        the score breakdown reflects the state the decision was made in.
        Never reached on the NullTracer fast path — callers guard on
        ``tracer.enabled``.
        """
        detail: dict = {
            "strategy": type(self.strategy).name,
            "packet_kind": plan.kind.value,
            "channel": plan.channel_id,
            "items": len(plan.items),
            "bytes": plan.payload_bytes,
            "nic": plan.driver.name,
            "dst": plan.dst,
            "score": self.cost.breakdown(plan, self.sim.now),
        }
        explain = self.strategy.explain_last()
        if explain:
            detail.update(explain)
        if self.tail_view is not None:
            hint = self.tail_view.hint(self.node_name, plan.dst, plan.driver.name)
            if hint is not None:
                detail["tail_hint"] = hint
        tracer.emit(
            self.sim.now, f"engine:{self.node_name}", "optimizer.decide", **detail
        )

    def _dispatch(self, plan: TransferPlan) -> None:
        """Turn a plan into a wire packet and hand it to the driver."""
        queue = self.waiting.queue(plan.channel_id)
        if self.config.validate_plans:
            # Plan items can only come from the lookahead window, and the
            # FIFO rule is decided by entries at or before the last taken
            # one, so a window-bounded snapshot suffices (and keeps the
            # check O(window) instead of O(queue) under deep backlogs).
            self.checker.check(plan, queue.pending_view(self.config.lookahead_window))
        segments: list[WireSegment] = []
        for item in plan.items:
            entry = item.entry
            offset = entry.consume(item.take)
            if entry.kind is EntryKind.DATA:
                segments.append(WireSegment(entry.fragment, offset, item.take))
            if entry.state is EntryState.SENT:
                queue.remove(entry)
        packet = WirePacket(
            kind=plan.kind,
            src=self.node_name,
            dst=plan.dst,
            channel_id=plan.channel_id,
            segments=tuple(segments),
            meta=plan.meta,
            packet_id=self.sim.ids.packet(),
        )
        plan.driver.send(packet)
        self.policy.note_dispatch(
            plan.channel_id,
            [(item.entry.traffic_class, item.take) for item in plan.items],
        )
        stats = self.stats
        stats.dispatches += 1
        kind = plan.kind.value
        stats.packets_by_kind[kind] = stats.packets_by_kind.get(kind, 0) + 1
        stats.payload_bytes += packet.payload_bytes
        if plan.kind in (PacketKind.EAGER, PacketKind.RDV_DATA):
            stats.data_packets += 1
            stats.data_segments += len(segments)
            if len(segments) > 1:
                stats.aggregated_packets += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "engine.dispatch",
                packet_kind=kind,
                packet=packet.packet_id,
                dst=plan.dst,
                segments=len(segments),
                bytes=packet.payload_bytes,
                nic=plan.driver.name,
                messages=[
                    [
                        seg.payload.message.message_id,
                        seg.payload.index,
                        seg.length,
                    ]
                    for seg in segments
                ],
            )

    # ------------------------------------------------------------------
    # Nagle hold timer
    # ------------------------------------------------------------------
    def _arm_hold(self, wake_at: float) -> None:
        if wake_at <= self.sim.now:
            # A Hold with a past deadline is a strategy implementation
            # bug, not a user configuration problem.
            raise InternalError(
                f"hold deadline {wake_at} not in the future (now={self.sim.now})"
            )
        if self._hold_timer is not None and self._hold_wake <= wake_at:
            return  # an earlier wake-up is already armed
        if self._hold_timer is not None:
            self.sim.cancel(self._hold_timer)
        self._hold_wake = wake_at
        self._hold_timer = self.sim.at(wake_at, self._hold_expired)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "hold.arm",
                wake_at=wake_at,
                backlog=self.waiting.total_pending,
            )

    def _hold_expired(self) -> None:
        self._hold_timer = None
        self._hold_wake = float("inf")
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now, f"engine:{self.node_name}", "hold.fire"
            )
        self._pump("nagle")

    # ------------------------------------------------------------------
    # rendezvous protocol
    # ------------------------------------------------------------------
    def park_for_rendezvous(self, entry: SubmitEntry, channel_id: int) -> None:
        """Take an oversized entry out of its queue and send a RDV_REQ.

        The entry re-enters the waiting lists as dispatchable bulk when
        the peer's acknowledgement arrives.  Other packets keep flowing
        meanwhile — rendezvous never head-of-line-blocks this engine.
        """
        if entry.state is not EntryState.WAITING:
            raise ProtocolError(
                f"cannot park {entry!r} in state {entry.state.value}"
            )
        self.waiting.queue(channel_id).remove(entry)
        entry.state = EntryState.RDV_PENDING
        token = self.sim.ids.rdv_token()
        self._rdv_pending[token] = (entry, channel_id)
        request = SubmitEntry(
            EntryKind.RDV_REQ,
            entry.dst,
            self.sim.now,
            meta={
                "token": token,
                "size": entry.remaining,
                "reply_to": self.node_name,
                "flow_id": entry.flow.flow_id if entry.flow is not None else None,
                "message_id": (
                    entry.message.message_id if entry.message is not None else None
                ),
            },
        )
        self._enqueue(request)
        self.stats.rdv_parked += 1
        if self.config.rdv_timeout is not None:
            self._rdv_timers[token] = self.sim.schedule(
                self.config.rdv_timeout, self._rdv_timeout, token
            )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "rdv.park",
                fragment=(
                    entry.fragment.index if entry.fragment is not None else None
                ),
                token=token,
                bytes=entry.remaining,
                message=(
                    entry.message.message_id if entry.message is not None else None
                ),
            )

    def _handle_rdv_req(self, packet: WirePacket) -> None:
        """Peer wants to push bulk data: prepare, then acknowledge.

        With ``config.rdv_requires_recv`` the acknowledgement is gated
        on a posted receive (:meth:`post_receive`): one receive credit
        admits one *message* — several oversized fragments of the same
        message consume a single credit.
        """
        if not self.config.rdv_requires_recv:
            self.sim.schedule(self._ack_delay, self._send_rdv_ack, packet)
            return
        message_id = packet.meta.get("message_id")
        flow_id = packet.meta.get("flow_id")
        if message_id is not None and message_id in self._granted_messages:
            self.sim.schedule(self._ack_delay, self._send_rdv_ack, packet)
            return
        if self._recv_credits.get(flow_id, 0) > 0:
            self._recv_credits[flow_id] -= 1
            if message_id is not None:
                self._granted_messages.add(message_id)
            self.sim.schedule(self._ack_delay, self._send_rdv_ack, packet)
            return
        self._deferred_reqs.setdefault(flow_id, []).append(packet)

    def post_receive(self, flow, count: int = 1) -> None:
        """Grant ``count`` receive credits on an incoming flow.

        Each credit admits one rendezvous message; deferred requests are
        acknowledged immediately, surplus credits are banked.  A no-op
        protocol-wise unless ``config.rdv_requires_recv`` is set (eager
        traffic never needs credits).
        """
        if flow.dst != self.node_name:
            raise ConfigurationError(
                f"flow {flow.name!r} does not terminate at {self.node_name!r}"
            )
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        flow_id = flow.flow_id
        for _ in range(count):
            deferred = self._deferred_reqs.get(flow_id)
            if deferred:
                packet = deferred.pop(0)
                message_id = packet.meta.get("message_id")
                self.sim.schedule(self._ack_delay, self._send_rdv_ack, packet)
                if message_id is not None:
                    self._granted_messages.add(message_id)
                    # Sibling requests of the same message ride the same
                    # credit (one posted receive admits one message).
                    siblings = [
                        p for p in deferred if p.meta.get("message_id") == message_id
                    ]
                    for sibling in siblings:
                        deferred.remove(sibling)
                        self.sim.schedule(self._ack_delay, self._send_rdv_ack, sibling)
            else:
                self._recv_credits[flow_id] = self._recv_credits.get(flow_id, 0) + 1

    def _send_rdv_ack(self, packet: WirePacket) -> None:
        ack = SubmitEntry(
            EntryKind.RDV_ACK,
            packet.meta["reply_to"],
            self.sim.now,
            meta={"token": packet.meta["token"]},
        )
        self._enqueue(ack)
        self.stats.acks_sent += 1
        self._kick("rdv-ack")

    def _handle_rdv_ack(self, packet: WirePacket) -> None:
        """Our earlier request was acknowledged: bulk data may go."""
        token = packet.meta["token"]
        try:
            entry, channel_id = self._rdv_pending.pop(token)
        except KeyError:
            if token in self._rdv_abandoned:
                # The handshake timed out and the entry already fell back
                # to eager transmission; a late ACK is stale, not a bug.
                return
            raise ProtocolError(f"unmatched rendezvous ACK (token {token})") from None
        timer = self._rdv_timers.pop(token, None)
        if timer is not None:
            self.sim.cancel(timer)
        entry.state = EntryState.RDV_READY
        self.waiting.enqueue(entry, channel_id)
        self.stats.rdv_ready += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "rdv.ready",
                fragment=(
                    entry.fragment.index if entry.fragment is not None else None
                ),
                token=token,
                message=(
                    entry.message.message_id if entry.message is not None else None
                ),
            )
        self._kick("rdv-ready")

    def _rdv_timeout(self, token: int) -> None:
        """Abandon a rendezvous handshake whose ACK never came.

        The parked entry re-enters its waiting list marked ``no_rdv``, so
        strategies chunk it into eager packets instead of re-parking it —
        slower than zero-copy bulk, but it keeps the message moving on a
        fabric that is losing control packets (graceful degradation
        instead of a hang).
        """
        pending = self._rdv_pending.pop(token, None)
        self._rdv_timers.pop(token, None)
        if pending is None:
            return  # ACK won the race with the timer
        entry, channel_id = pending
        self._rdv_abandoned.add(token)
        entry.state = EntryState.WAITING
        entry.meta["no_rdv"] = True
        self.waiting.enqueue(entry, channel_id)
        self.stats.rdv_timeouts += 1
        self._rendezvous_abandoned(entry, channel_id)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"engine:{self.node_name}",
                "rdv.timeout",
                fragment=(
                    entry.fragment.index if entry.fragment is not None else None
                ),
                token=token,
                bytes=entry.remaining,
                message=(
                    entry.message.message_id if entry.message is not None else None
                ),
            )
        self._kick("rdv-timeout")

    def _rendezvous_abandoned(self, entry: SubmitEntry, channel_id: int) -> None:
        """Subclass hook: a parked rendezvous fell back to eager.

        The base engine needs no extra bookkeeping; engines that block
        channels behind a handshake (the Madeleine-3 baseline) override
        this to unblock them.
        """

    def _kick(self, trigger: str) -> None:
        """Pump if any NIC can take work right now."""
        self._standing = None  # whatever kicked may have changed the answer
        if any(d.idle for d in self.drivers):
            self._pump(trigger)

    # ------------------------------------------------------------------
    # dynamic reassignment (paper §2)
    # ------------------------------------------------------------------
    def reassign_class(self, traffic_class, channel_id: int) -> int:
        """Move pending entries of a traffic class to another channel.

        The mechanism behind "dynamically change the assignment of
        networking resources to traffic classes": when an adaptive
        policy rewrites the class → channel mapping, entries already
        waiting migrate too (per-flow arrival order is preserved — a
        flow's entries share one class and therefore one source queue).
        Returns the number of entries moved.
        """
        moved: list[SubmitEntry] = []
        for queue in list(self.waiting.non_empty()):
            if queue.channel_id == channel_id:
                continue
            for entry in queue.pending():
                if entry.traffic_class is traffic_class:
                    queue.remove(entry)
                    moved.append(entry)
        for entry in moved:
            self.waiting.enqueue(entry, channel_id)
        if moved:
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(
                    self.sim.now,
                    f"engine:{self.node_name}",
                    "engine.reassign",
                    traffic_class=traffic_class.value,
                    channel=channel_id,
                    moved=len(moved),
                )
        return len(moved)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Pending entries across all waiting lists."""
        return self.waiting.total_pending

    @property
    def rendezvous_in_flight(self) -> int:
        """Rendezvous handshakes awaiting acknowledgement."""
        return len(self._rdv_pending)

    @property
    def hold_timer_armed(self) -> bool:
        """Whether a Nagle hold timer is currently pending."""
        return self._hold_timer is not None

    @property
    def deferred_rendezvous(self) -> int:
        """Incoming rendezvous requests waiting for a posted receive."""
        return sum(len(reqs) for reqs in self._deferred_reqs.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.node_name!r}, "
            f"{len(self.drivers)} driver(s), backlog={self.backlog})"
        )


class OptimizingEngine(CommEngineBase):
    """The paper's engine: NIC-idle-triggered optimization.

    Activation discipline (§3): a busy NIC lets the backlog accumulate;
    the idle transition triggers a full optimization pass.  A submission
    arriving while some NIC is idle is pumped immediately so the engine
    degenerates gracefully to a classic library under light load.
    """

    def _after_submit(self) -> None:
        # A rail selector counts the pumps it orders: under one, none is skipped.
        if self._standing is not None and self.rail_selector is None:
            release_bytes, release_pending, rails = self._standing
            waiting = self.waiting
            if (
                self.sim.now < self._hold_wake
                and waiting.total_pending < release_pending
                and waiting.total_pending_bytes < release_bytes
            ):
                # Only tail appends since the hold: a pump would hold each rail again.
                self._activate("submit")
                self.stats.holds += rails
                return
        if any(d.idle for d in self.drivers):
            self._pump("submit")

    def _nic_idle(self, nic) -> None:
        self._pump("idle")
