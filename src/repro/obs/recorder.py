"""Trace sinks: unbounded capture and the bounded flight recorder.

Both are callables — subscribe them to any
:class:`~repro.util.tracing.Tracer` — so the observability plane can
attach to a cluster's existing tracer after construction instead of
threading a special tracer through every component.

The :class:`RingBufferSink` is the **flight recorder** mode for long
runs: it keeps only the most recent ``capacity`` events (O(1) per
event, strictly bounded memory) and counts what it evicted, so a
multi-minute simulation can fly with tracing on and still hand the
final window to the exporters when something interesting happens at
the end.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent, events_to_jsonl

__all__ = ["ListSink", "RingBufferSink", "truncation_marker"]


def truncation_marker(sink: "ListSink | RingBufferSink") -> TraceEvent:
    """A synthetic ``obs.truncated`` event recording eviction counts.

    Appended after the retained window when a trace is exported from a
    ring buffer that overflowed, so offline consumers (``obs analyze``,
    ``obs why``) can warn instead of silently reading a truncated run
    as a complete one.  Survives both JSONL and Chrome export formats.
    """
    events = sink.events
    return TraceEvent(
        time=events[-1].time if events else 0.0,
        source="obs:recorder",
        kind="obs.truncated",
        detail={
            "seen": sink.seen,
            "dropped": sink.dropped,
            "capacity": getattr(sink, "capacity", None),
        },
    )


class ListSink(list):
    """Keeps every event, in emission order.

    It *is* the event list: calling it is ``list.append``, so recording
    an event costs no Python frame.  Like any list it is falsy while
    empty and compares by content; test it against ``None``.
    """

    __slots__ = ()
    __call__ = list.append

    @property
    def events(self) -> list[TraceEvent]:
        """The captured events (the sink itself)."""
        return self

    @property
    def seen(self) -> int:
        """Events received (none are ever dropped)."""
        return len(self)

    @property
    def dropped(self) -> int:
        return 0

    def to_jsonl(self) -> str:
        """The captured events as JSON Lines text."""
        return events_to_jsonl(self)


class RingBufferSink:
    """Keeps only the last ``capacity`` events (flight recorder)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring buffer capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.seen = 0

    def __call__(self, event: TraceEvent) -> None:
        self.seen += 1
        self._ring.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        """The retained window, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted to stay within ``capacity``."""
        return self.seen - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    def to_jsonl(self) -> str:
        """The retained window as JSON Lines text."""
        return events_to_jsonl(self._ring)
