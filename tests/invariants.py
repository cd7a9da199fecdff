"""The invariants every simulated run must satisfy, declared once.

:data:`INVARIANTS` is a tuple of named, typed :class:`Invariant`
entries.  An invariant's ``subject`` says what it judges:

* a :class:`Dispatch` — one plan an engine puts on the wire, seen just
  before (entries unconsumed) and just after (with the busy time its NIC
  was charged).  The root ``tests/conftest.py`` checks every in-process
  dispatch of the suite against the ``Dispatch`` invariants, at both
  moments;
* a :class:`Run` — one scenario run twice in one process, untraced and
  then traced (:func:`run_twice`).  ``tests/integration/test_generated.py``
  checks every generated scenario against the ``Run`` invariants.

A check returns nothing and raises :class:`InvariantViolation` (or, for
``plan_valid``, the checker's :class:`ConstraintViolation`) naming what
broke.  Look an invariant up by name with ``INVARIANTS["name"]``; an
unknown name raises ``KeyError`` listing the known ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.core.engine import CommEngineBase
from repro.core.plan import TransferPlan
from repro.madeleine.message import Message
from repro.madeleine.submit import EntryState
from repro.network.wire import PacketKind
from repro.runtime.cluster import Cluster
from repro.runtime.metrics import SessionReport

from tests.core.constraints import ConstraintChecker

__all__ = [
    "INVARIANTS",
    "Dispatch",
    "Invariant",
    "InvariantSet",
    "InvariantViolation",
    "Outcome",
    "Run",
    "run_twice",
]


class InvariantViolation(AssertionError):
    """A run broke one of the declared invariants."""


@dataclass(frozen=True, slots=True)
class Dispatch:
    """A plan ``engine`` dispatches: just before, entries unconsumed
    (``charged`` is None), or just after, where ``charged`` is the busy
    time the dispatch charged the plan's simulated NIC.  A
    :class:`~repro.live.nic.LiveNIC` charges measured time, so a live
    dispatch is only seen before."""

    engine: CommEngineBase
    plan: TransferPlan
    charged: float | None = None


#: One dispatched packet as the run's log keeps it: ``(time, node, kind,
#: nic, dst, channel, items)``, where a data item is ``(message_id,
#: fragment index, bytes remaining before, bytes taken)`` and a control
#: item is ``(entry kind, bytes taken)``.
LoggedDispatch = tuple


@dataclass(slots=True)
class Outcome:
    """One build-and-run of a scenario."""

    cluster: Cluster
    submitted: list[Message]
    report: SessionReport
    dispatches: list[LoggedDispatch]
    #: Per flow id, data fragments ``(message seq, fragment index)`` in the
    #: order their first bytes left in an EAGER packet, counting only the
    #: ones the flow-FIFO rule binds (WAITING, never parked, not LATER).
    departures: dict[int, list[tuple[int, int]]]

    def result(self) -> tuple:
        """Everything a run produced that tracing must not change."""
        records = tuple(
            (r.message_id, r.size, r.submit_time, r.complete_time)
            for r in self.cluster.metrics.records
        )
        return records, self.report.to_dict(), self.cluster.sim.now


@dataclass(slots=True)
class Run:
    """One scenario, run untraced and then traced, fresh each time."""

    untraced: Outcome
    traced: Outcome

    @property
    def outcomes(self) -> tuple[Outcome, Outcome]:
        return self.untraced, self.traced


S = TypeVar("S", Dispatch, Run)


@dataclass(frozen=True, slots=True)
class Invariant(Generic[S]):
    """One named property of a subject of type ``subject``."""

    name: str
    subject: type[S]
    check: Callable[[S], None]


class InvariantSet:
    """An ordered, name-indexed collection of invariants."""

    def __init__(self, invariants: tuple[Invariant, ...]) -> None:
        self._by_name = {inv.name: inv for inv in invariants}
        if len(self._by_name) != len(invariants):
            raise ValueError("invariant names must be unique")
        self.invariants = invariants

    def __getitem__(self, name: str) -> Invariant:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown invariant {name!r} (known: {sorted(self._by_name)})"
            ) from None

    def names(self) -> list[str]:
        return [inv.name for inv in self.invariants]

    def on(self, subject: type) -> tuple[Invariant, ...]:
        """The invariants that judge subjects of this type."""
        return tuple(inv for inv in self.invariants if inv.subject is subject)

    def check(self, subject: Dispatch | Run) -> None:
        """Run every invariant of ``subject``'s type against it."""
        for inv in self.on(type(subject)):
            inv.check(subject)


def _fail(name: str, message: str) -> None:
    raise InvariantViolation(f"{name}: {message}")


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
_CHECKER = ConstraintChecker()


def _plan_valid(d: Dispatch) -> None:
    """The plan obeys the paper's §3 message-structure rules."""
    if d.charged is not None:
        return  # judged before the plan consumes a byte
    # The snapshot production checked before the check left ``src/``:
    # plan items come from the lookahead window and the FIFO rule only
    # looks at entries up to the last one taken.
    queue = d.engine.waiting.queue(d.plan.channel_id)
    _CHECKER.check(d.plan, queue.pending_view(d.engine.config.lookahead_window))


def _priced_as_charged(d: Dispatch) -> None:
    """The occupancy the cost model predicts for the plan is, bit for bit,
    the busy time ``Driver.send`` charged the NIC for its packet."""
    if d.charged is None:
        return  # judged after the dispatch
    predicted = d.engine.cost.occupancy(d.plan)
    if predicted != d.charged:
        _fail(
            "priced_as_charged",
            f"{d.plan!r} priced at {predicted!r} s, NIC charged {d.charged!r} s",
        )


def _exactly_once_fifo(run: Run) -> None:
    """Every message completes once, at the receiver too, between its
    submit and the end of the run; a flow's FIFO-bound fragments leave in
    seq order."""
    for o in run.outcomes:
        records = o.cluster.metrics.records
        wanted = sorted(m.message_id for m in o.submitted)
        got = sorted(r.message_id for r in records)
        if got != wanted:
            missing = sorted(set(wanted) - set(got))
            extra = sorted(i for i in set(got) if got.count(i) > 1)
            _fail("exactly_once_fifo", f"missing {missing}, repeated {extra}")
        reassembled = sum(r.messages_completed for r in o.cluster.reassemblers.values())
        if reassembled != len(wanted):
            _fail("exactly_once_fifo", f"{reassembled} reassembled of {len(wanted)}")
        end = o.cluster.sim.now
        for r in records:
            if not r.submit_time <= r.complete_time <= end:
                _fail(
                    "exactly_once_fifo",
                    f"message {r.message_id} submitted at {r.submit_time!r}, "
                    f"completed at {r.complete_time!r}, run ended at {end!r}",
                )
        for flow_id, order in o.departures.items():
            if order != sorted(order):
                _fail(
                    "exactly_once_fifo",
                    f"flow {flow_id} sent (seq, fragment) out of order: {order}",
                )


def _bytes_conserved(run: Run) -> None:
    """Bytes submitted == bytes dispatched == bytes delivered."""
    for o in run.outcomes:
        submitted = sum(m.total_size for m in o.submitted)
        delivered = sum(r.size for r in o.cluster.metrics.records)
        sent = sum(e.stats.payload_bytes for e in o.cluster.engines.values())
        if not submitted == delivered == sent:
            _fail(
                "bytes_conserved",
                f"submitted {submitted} B, dispatched {sent} B, delivered {delivered} B",
            )


def _report_recount(run: Run) -> None:
    """``SessionReport`` counters equal a recount from the records, the
    dispatch log and the NIC stats."""
    for o in run.outcomes:
        records = o.cluster.metrics.records
        nics = [nic.stats for node in o.cluster.nodes for nic in node.nics]
        data = [d for d in o.dispatches if d[2] in (PacketKind.EAGER, PacketKind.RDV_DATA)]
        recount = {
            "messages": len(records),
            "total_bytes": sum(r.size for r in records),
            "network_transactions": sum(s.requests for s in nics),
            "data_packets": len(data),
            "control_packets": len(o.dispatches) - len(data),
            "rdv_count": sum(1 for d in o.dispatches if d[2] is PacketKind.RDV_REQ),
            "packets_dropped": sum(s.drops for s in nics),
            "packets_corrupted": sum(s.corruptions for s in nics),
            "packets_duplicated": sum(s.duplicates for s in nics),
            "retransmits": sum(s.retransmits for s in nics),
        }
        report = o.report
        wrong = {
            key: (getattr(report, key), value)
            for key, value in recount.items()
            if getattr(report, key) != value
        }
        segments = sum(len(d[6]) for d in data)
        if data and abs(report.aggregation_ratio - segments / len(data)) > 1e-12:
            wrong["aggregation_ratio"] = (report.aggregation_ratio, segments / len(data))
        if wrong:
            _fail("report_recount", f"report vs recount: {wrong}")


def _quiescent(run: Run) -> None:
    """At idle no hold or rendezvous timer is armed, nothing is queued and
    no message is half reassembled."""
    for o in run.outcomes:
        for name, engine in o.cluster.engines.items():
            state = {
                "hold_timer_armed": engine.hold_timer_armed,
                "rdv_timers": len(engine._rdv_timers),
                "backlog": engine.backlog,
                "rendezvous_in_flight": engine.rendezvous_in_flight,
                "incomplete_messages": o.cluster.reassemblers[name].incomplete_messages,
            }
            if any(state.values()):
                _fail("quiescent", f"engine {name} at idle: {state}")


def _traced_equals_untraced(run: Run) -> None:
    """Tracing does not change one dispatched packet."""
    a, b = run.untraced.dispatches, run.traced.dispatches
    if a != b:
        first = next(
            (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
        )
        _fail(
            "traced_equals_untraced",
            f"dispatch logs differ at #{first} (untraced {len(a)}, traced {len(b)} packets)",
        )


def _deterministic(run: Run) -> None:
    """The result is a function of ``(scenario, seed)``."""
    a, b = run.untraced.result(), run.traced.result()
    if a != b:
        _fail("deterministic", "two runs of one (scenario, seed) gave different results")


INVARIANTS = InvariantSet(
    (
        Invariant("plan_valid", Dispatch, _plan_valid),
        Invariant("priced_as_charged", Dispatch, _priced_as_charged),
        Invariant("exactly_once_fifo", Run, _exactly_once_fifo),
        Invariant("bytes_conserved", Run, _bytes_conserved),
        Invariant("report_recount", Run, _report_recount),
        Invariant("quiescent", Run, _quiescent),
        Invariant("traced_equals_untraced", Run, _traced_equals_untraced),
        Invariant("deterministic", Run, _deterministic),
    )
)


# ----------------------------------------------------------------------
# producing a Run
# ----------------------------------------------------------------------
def _record_dispatches(cluster: Cluster) -> tuple[list, dict]:
    """Log every dispatch of every engine (before it consumes the plan)."""
    log: list[LoggedDispatch] = []
    departures: dict[int, list[tuple[int, int]]] = {}
    departed: set[int] = set()
    for engine in cluster.engines.values():
        real = engine._dispatch

        def recording(plan, engine=engine, real=real):
            items = []
            for item in plan.items:
                entry = item.entry
                fragment = entry.fragment
                if fragment is None:
                    items.append((entry.kind.value, item.take))
                    continue
                items.append(
                    (fragment.message.message_id, fragment.index, entry.remaining, item.take)
                )
                if (
                    plan.kind is PacketKind.EAGER
                    and entry.state is EntryState.WAITING
                    and not entry.deferrable
                    and not entry.meta.get("no_rdv")
                    and id(fragment) not in departed
                ):
                    departed.add(id(fragment))
                    departures.setdefault(fragment.message.flow.flow_id, []).append(
                        (fragment.message.seq, fragment.index)
                    )
            log.append(
                (
                    engine.sim.now, engine.node_name, plan.kind, plan.driver.name,
                    plan.dst, plan.channel_id, tuple(items),
                )
            )
            real(plan)

        engine._dispatch = recording
    return log, departures


def _run_once(
    make: Callable[[bool], Cluster],
    submit: Callable[[Cluster], list[Message]],
    traced: bool,
) -> Outcome:
    cluster = make(traced)
    log, departures = _record_dispatches(cluster)
    submitted = submit(cluster)
    cluster.run_until_idle()
    return Outcome(cluster, submitted, cluster.report(), log, departures)


def run_twice(
    make: Callable[[bool], Cluster], submit: Callable[[Cluster], list[Message]]
) -> Run:
    """Build a fresh cluster with ``make(traced)``, ``submit`` its
    messages and run it to idle: untraced, then traced."""
    return Run(_run_once(make, submit, False), _run_once(make, submit, True))
