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
potential event, nothing more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "TraceEvent",
    "KindSink",
    "Tracer",
    "NullTracer",
    "event_to_dict",
    "events_to_jsonl",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace record.

    ``source`` identifies the emitting component (``"nic:myri0"``,
    ``"optimizer:node1"``); ``kind`` is a stable machine-matchable tag
    (``"nic.idle"``, ``"strategy.aggregate"``); ``detail`` carries
    kind-specific fields.
    """

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


class KindSink:
    """Base of sinks that consume only the kinds in their ``handlers``
    table (``kind -> callable(event)``).  A :class:`Tracer` calls such a
    sink only for those kinds; calling it directly (replaying a stored
    trace) routes through the same table."""

    __slots__ = ("handlers",)

    def __call__(self, event: TraceEvent) -> None:
        """Feed one event; kinds outside the table are ignored."""
        handler = self.handlers.get(event.kind)
        if handler is not None:
            handler(event)


class Tracer:
    """The one kind-indexed event dispatcher.  A subscriber is a plain
    callable (gets every event) or a :class:`KindSink` (gets its kinds);
    an event costs one route lookup plus the calls that consume it."""

    def __init__(self) -> None:
        self._sinks: list[Callable[[TraceEvent], None]] = []
        #: kind -> the callables consuming it (built on first use).
        self._routes: dict[str, tuple[Callable[[TraceEvent], None], ...]] = {}
        #: Events dispatched so far, per kind (the plane exports it).
        self.counts: dict[str, int] = {}
        #: Whether emitting is worthwhile (lets hot paths skip building
        #: detail dicts).  A plain attribute on purpose — see module docs.
        self.enabled: bool = False

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a sink for every future event (of its kinds)."""
        self._sinks.append(sink)
        self._routes.clear()
        self.enabled = True

    def _route(self, kind: str) -> tuple[Callable[[TraceEvent], None], ...]:
        """Every plain callable, plus each KindSink handler for ``kind``."""
        route = self._routes[kind] = tuple(
            call
            for sink in self._sinks
            if (call := getattr(sink, "handlers", {kind: sink}).get(kind)) is not None
        )
        return route

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Dispatch one event to the subscribers that consume its kind."""
        if not self.enabled:
            return
        event = TraceEvent(time, source, kind, detail)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        route = self._routes.get(kind)
        for call in route if route is not None else self._route(kind):
            call(event)


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
