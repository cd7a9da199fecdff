"""Scheduled events and the priority queue that orders them.

Determinism contract: two events scheduled for the same virtual time fire
in scheduling order (FIFO), enforced by a monotonically increasing
sequence number.  The heap holds ``(time, seq, event)`` tuples, so it
orders by C-level tuple compares that never reach the event (``seq`` is
unique).  Cancellation is O(1) lazy: cancelled events stay in the heap
and are skipped on pop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A cancellable callback scheduled at a virtual time.

    Instances are created by :class:`~repro.sim.engine.Simulator`; user
    code only ever holds them to call :meth:`cancel` (e.g. a Nagle timer
    superseded by a NIC-idle activation).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent; a no-op after firing."""
        self.cancelled = True
        # Release references early: a cancelled event may sit in the heap
        # for a long time and its args can pin large object graphs.
        self.fn = _cancelled_fn
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


def _cancelled_fn(*_args: Any) -> None:  # pragma: no cover - never called
    raise AssertionError("cancelled event fired")


class EventQueue:
    """Binary-heap event queue with deterministic same-time ordering."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0

    def push(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at ``time`` and return the handle."""
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Bookkeeping hook: the owner cancelled one live event."""
        self._live -= 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
