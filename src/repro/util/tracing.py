"""Lightweight structured tracing for simulated components.

A :class:`Tracer` receives events.  The default :class:`NullTracer`
discards them at near-zero cost; tests and the E1 architecture
benchmark subscribe a :class:`~repro.obs.recorder.ListSink` to assert on
the *sequence* of layer interactions (collect → optimize → transfer),
which is how we validate Figure 1 executably.

The observability plane (:mod:`repro.obs`) builds on the same hook: it
*subscribes sinks* to whatever tracer the simulator already has, which
flips :attr:`Tracer.enabled` to true and lets every guarded emit site
start producing events without reconstructing the cluster.

An event is the plain tuple ``(time, source, kind, *fields)``: the
fields of its kind, in the order :data:`KINDS` declares them once.
Every field is an atom — ``int``, ``float``, ``str``, ``bool``, ``None``
or a tuple of those — so the garbage collector untracks an event once
it has seen it (and the tuples it holds), and a long trace does not
fill the old generations.  A field a site does not report (a strategy's explain
field, a simulated NIC's live-only ones) holds :data:`ABSENT`, which
every serializer skips; ``None`` is a value.  Capture appends the
tuple; a reader that wants names asks :func:`detail_of`, and the trace
analysis unpacks by position.

Hot-path contract: ``tracer.enabled`` is a plain attribute, not a
property — emit sites check it before computing any field, so a
production run with no sinks pays one attribute read and one branch per
potential event, nothing more.  A traced event costs its fields, the
tuple, and one call of the sink: with one sink ``emit`` is that sink,
and a ``ListSink`` records with ``list.append`` itself, no Python frame.
The tracer counts nothing; a sink that drops events counts what it saw.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "ABSENT", "KINDS", "TraceEvent", "Tracer", "NullTracer",
    "detail_of", "event_to_dict", "event_from_dict", "events_to_jsonl",
]

#: ``(time, source, kind, *fields)``: an event is a plain tuple.
TraceEvent = tuple

#: The value of a field its site does not report.  A bare ``object()``
#: is no GC object, so an event holding it stays untrackable.
ABSENT = object()

#: Each kind's field names, in position order.  ``a.b`` is key ``b`` of
#: the object ``a`` in a detail dict.
KINDS: dict[str, tuple[str, ...]] = {
    "collect.enqueue": ("message", "flow", "dst", "fragments", "bytes"),
    "engine.failover": ("nic", "survivors"),
    "optimizer.activate": ("trigger", "backlog"),
    "optimizer.decide": (
        "strategy", "packet_kind", "channel", "items", "bytes", "nic", "dst",
        # CostModel.breakdown, in order
        "score.wire_bytes", "score.payload_bytes", "score.control_bonus_bytes",
        "score.startup_saved_bytes", "score.occupancy_s", "score.density",
        "score.oldest_wait_s", "score.staleness_boost", "score.score",
        # Strategy.explain_last: auto's regime, then search's seven
        "regime", "candidates", "budget", "truncation", "widest_items",
        "best_score", "seed_channel", "seed",
    ),
    # messages: one (message_id, fragment index, bytes) per segment
    "engine.dispatch": ("packet_kind", "packet", "dst", "segments", "bytes", "nic", "messages"),
    "hold.arm": ("wake_at", "backlog"),
    "hold.fire": (),
    "rdv.park": ("fragment", "token", "bytes", "message"),
    "rdv.ready": ("fragment", "token", "message"),
    "rdv.timeout": ("fragment", "token", "bytes", "message"),
    "engine.reassign": ("traffic_class", "channel", "moved"),
    # live_bytes and corr: a live NIC's only
    "nic.send": ("packet", "packet_kind", "bytes", "segments", "dst", "occupancy", "live_bytes", "corr"),
    "nic.idle": (),
    "nic.fail": (),
    "nic.recover": (),
    "rel.failover": ("packet", "to"),
    "rel.retransmit": ("packet", "attempt"),
    "rel.drop": ("packet", "attempt"),
    "reorder.enter": ("packet", "src", "seq", "expected"),
    "reorder.release": ("packet", "src"),
    "rx.deliver": ("packet", "packet_kind", "channel", "bytes", "src", "corr"),
    "live.recv": ("corr", "src", "dst", "via", "sent_at", "packet_kind", "segments", "bytes"),
    "message.complete": ("message", "flow", "src", "bytes", "submit_time"),
    # queues: ("node/channel", (entries, bytes)) pairs; nic_busy: (nic, fraction)
    "obs.sample": (
        "queues", "nic_busy", "backlog", "backlog_bytes", "retransmits_in_flight",
        "rendezvous_in_flight", "holds_armed", "completed",
    ),
    "obs.truncated": ("seen", "dropped", "capacity"),
}

#: Fields held as a tuple of ``(key, value)`` pairs, read as an object.
_OBJECTS = frozenset(("queues", "nic_busy"))


class Tracer:
    """The one event dispatcher: every subscriber is called with every
    event, in subscription order."""

    def __init__(self) -> None:
        self._sinks: list[Callable[[TraceEvent], None]] = []
        #: Whether emitting is worthwhile (lets hot paths skip computing
        #: fields).  A plain attribute on purpose — see module docs.
        self.enabled: bool = False

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a sink for every future event.

        While it is the only one, :meth:`emit` *is* the sink: emitting
        calls it directly, and a ``ListSink`` records in C.
        """
        self._sinks.append(sink)
        self.enabled = True
        if len(self._sinks) == 1:
            self.emit = sink  # type: ignore[method-assign]
        else:
            vars(self).pop("emit", None)

    def emit(self, event: TraceEvent) -> None:
        """Dispatch one event ``(time, source, kind, *fields)`` to every
        subscriber."""
        for sink in self._sinks:
            sink(event)


class NullTracer(Tracer):
    """The production default: no sinks, so ``enabled`` stays false and
    guarded emit sites never build an event."""


def detail_of(event: TraceEvent) -> dict[str, Any]:
    """An event's fields by name, as its JSON ``detail`` object reads:
    :data:`ABSENT` ones left out, ``a.b`` nested, pair tuples as objects.

    Raises ``KeyError`` on an unknown kind and ``ValueError`` on an
    event of the wrong arity.
    """
    detail: dict[str, Any] = {}
    for name, value in zip(KINDS[event[2]], event[3:], strict=True):
        if value is ABSENT:
            continue
        if name in _OBJECTS:
            value = dict(value)
        head, dot, key = name.partition(".")
        if dot:
            detail.setdefault(head, {})[key] = value
        else:
            detail[name] = value
    return detail


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """The canonical JSON shape of one event.

    Fields are nested under ``"detail"`` so a field named
    ``time``/``source``/``kind`` can never clobber the envelope.
    """
    return {"time": event[0], "source": event[1], "kind": event[2], "detail": detail_of(event)}


def event_from_dict(record: Mapping[str, Any]) -> TraceEvent:
    """One event back from its :func:`event_to_dict` shape.

    A field the record lacks is :data:`ABSENT`; JSON arrays come back as
    tuples.  Raises ``KeyError``, ``TypeError``, ``ValueError`` or
    ``AttributeError`` on a record of another shape or kind; callers
    name the record in their error.
    """
    kind = str(record["kind"])
    detail = record.get("detail") or {}
    fields = []
    for name in KINDS[kind]:
        head, dot, key = name.partition(".")
        value = detail.get(head, {}).get(key, ABSENT) if dot else detail.get(name, ABSENT)
        if name in _OBJECTS and value is not ABSENT:
            value = tuple((str(k), _atom(v)) for k, v in value.items())
        fields.append(_atom(value))
    return (float(record["time"]), str(record["source"]), kind, *fields)


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events as JSON Lines (one event object per line)."""
    return "\n".join(json.dumps(event_to_dict(e)) for e in events)


def _atom(value: Any) -> Any:
    """A JSON value in its event form: arrays become tuples."""
    if isinstance(value, list):
        return tuple(map(_atom, value))
    return value
