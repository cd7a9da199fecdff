"""Lightweight structured tracing for simulated components.

A :class:`Tracer` receives ``(time, source, kind, detail)`` tuples.  The
default :class:`NullTracer` discards them at near-zero cost; tests and
the E1 architecture benchmark subscribe a
:class:`~repro.obs.recorder.ListSink` to assert on the *sequence* of
layer interactions (collect → optimize → transfer), which is how we
validate Figure 1 executably.

The observability plane (:mod:`repro.obs`) builds on the same hook: it
*subscribes sinks* to whatever tracer the simulator already has, which
flips :attr:`Tracer.enabled` to true and lets every guarded emit site
start producing events without reconstructing the cluster.

Hot-path contract: ``tracer.enabled`` is a plain attribute, not a
property — emit sites check it before building any detail dict, so a
production run with no sinks pays one attribute read and one branch per
potential event, nothing more.  A traced event costs its detail dict,
one :class:`TraceEvent` (a ``NamedTuple``, built in C without the
generated ``__new__``), a per-kind count and one call per sink; a
``ListSink`` records it with ``list.append`` itself, no Python frame.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "event_to_dict",
    "events_to_jsonl",
]


class TraceEvent(NamedTuple):
    """One trace record: an immutable four-field tuple.

    ``source`` identifies the emitting component (``"nic:myri0"``,
    ``"optimizer:node1"``); ``kind`` is a stable machine-matchable tag
    (``"nic.idle"``, ``"strategy.aggregate"``); ``detail`` carries
    kind-specific fields.
    """

    time: float
    source: str
    kind: str
    detail: dict[str, Any]


#: ``_tuple_new(TraceEvent, fields)`` builds an event in C, without the
#: generated ``__new__``'s Python frame (the tracer's per-event path).
_tuple_new = tuple.__new__


class Tracer:
    """The one event dispatcher: every subscriber is called with every
    event, in subscription order."""

    def __init__(self) -> None:
        self._sinks: list[Callable[[TraceEvent], None]] = []
        #: Events dispatched so far, per kind (the plane exports it).
        self.counts: dict[str, int] = {}
        #: Whether emitting is worthwhile (lets hot paths skip building
        #: detail dicts).  A plain attribute on purpose — see module docs.
        self.enabled: bool = False

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a sink for every future event."""
        self._sinks.append(sink)
        self.enabled = True

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Dispatch one event to every subscriber."""
        if not self.enabled:
            return
        event = _tuple_new(TraceEvent, (time, source, kind, detail))
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        for sink in self._sinks:
            sink(event)


class NullTracer(Tracer):
    """The production default: no sinks, so ``enabled`` stays false and
    guarded emit sites never build an event."""


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """The canonical JSON shape of one event.

    Detail fields are nested under ``"detail"`` so a detail key named
    ``time``/``source``/``kind`` can never clobber the envelope.
    """
    return {
        "time": event.time,
        "source": event.source,
        "kind": event.kind,
        "detail": {k: _jsonable(v) for k, v in event.detail.items()},
    }


def events_to_jsonl(events: "Iterator[TraceEvent] | list[TraceEvent]") -> str:
    """Serialize events as JSON Lines (one event object per line)."""
    return "\n".join(json.dumps(event_to_dict(e)) for e in events)


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for trace detail values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
