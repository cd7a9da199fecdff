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

from collections import Counter, deque
from operator import itemgetter
from typing import Iterator, Sequence

from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

__all__ = ["ListSink", "RingBufferSink", "truncation_marker"]


def truncation_marker(
    events: Sequence[TraceEvent], seen: int, dropped: int, capacity: int | None = None
) -> TraceEvent:
    """A synthetic ``obs.truncated`` event recording drop counts.

    Appended after the kept ``events`` when a trace is exported from a
    recorder that dropped some: a ring buffer that overflowed (it
    evicts the oldest), or a live run whose peer spool filled (it
    drops the newest until the next drain).  Offline consumers
    (``obs analyze``, ``obs why``) then warn instead of silently reading
    a truncated run as a complete one.  Both export formats write it.
    """
    time = events[-1][0] if events else 0.0
    return (time, "obs:recorder", "obs.truncated", seen, dropped, capacity)


class ListSink(list):
    """Keeps every event, in emission order.

    It *is* the event list: calling it is ``list.append``, so recording
    an event costs no Python frame, and it counts kinds only when asked
    (:attr:`counts`).  Like any list it is falsy while empty and
    compares by content; test it against ``None``.
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

    @property
    def counts(self) -> dict[str, int]:
        """Events received per kind, in first-seen order."""
        return dict(Counter(map(itemgetter(2), self)))


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
        #: Events received per kind, evicted ones included.
        self.counts: dict[str, int] = {}

    def __call__(self, event: TraceEvent) -> None:
        self.seen += 1
        counts = self.counts
        counts[event[2]] = counts.get(event[2], 0) + 1
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
