"""The simulation engine: virtual clock plus event loop.

One :class:`Simulator` instance hosts an entire experiment (fabric,
engines, workloads).  It is single-threaded and fully deterministic:
given the same scenario and seed, two runs produce byte-identical
metrics.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.sim.event import Event, EventQueue
from repro.util.errors import SimulationError
from repro.util.tracing import NullTracer, Tracer

__all__ = ["RunIds", "Simulator"]


class RunIds:
    """The identities a run has to *count*, one instance per run.

    Owned by the :class:`Simulator` (and, identically, by the live
    plane's ``LiveClock``) as ``sim.ids``, so an id is a function of
    what this run did and never of what the process did before it.
    Each attribute is a zero-argument callable returning the next
    integer: ``flow()`` numbers flows in opening order, ``packet()``
    wire packets, ``rdv_token()`` rendezvous handshakes and ``app()``
    the apps installed without a name.  Every other id is derived from
    structure — a message id from ``(flow_id, seq)``, a fragment from
    its message and index — and needs no counter at all.
    """

    __slots__ = ("flow", "packet", "rdv_token", "app")

    def __init__(self) -> None:
        self.flow = itertools.count().__next__
        self.packet = itertools.count().__next__
        self.rdv_token = itertools.count().__next__
        self.app = itertools.count().__next__


class Simulator:
    """Virtual clock, event queue, and run loop.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.util.tracing.Tracer` shared by every
        component of the experiment; defaults to a :class:`NullTracer`.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._events_processed = 0
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.ids = RunIds()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO tie-break).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, fn, args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time ``>= now``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        return self._queue.push(time, fn, args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already cancelled)."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event. Returns ``False`` if the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - queue invariant
            raise SimulationError("event queue returned an event from the past")
        self._now = event.time
        self._events_processed += 1
        event.fn(*event.args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the event loop.

        Stops when the queue drains, when virtual time would exceed
        ``until`` (the clock is then advanced *to* ``until``), or after
        ``max_events`` dispatches.  Returns the final virtual time.
        Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until t={until} < now={self._now}")
        self._running = True
        try:
            dispatched = 0
            while True:
                if max_events is not None and dispatched >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                dispatched += 1
            else:  # pragma: no cover - unreachable
                pass
            if until is not None and self._now < until and not self._queue:
                self._now = until
            return self._now
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Drain the queue completely (bounded by ``max_events``)."""
        self.run(max_events=max_events)
        if self._queue:
            raise SimulationError(
                f"simulation did not go idle within {max_events} events"
            )
        return self._now
