"""Bridge between the asyncio clock and the engine's activation discipline.

The optimizing engine, the workload processes, and every component in
between talk to a :class:`~repro.sim.engine.Simulator`-shaped object:
``now``, ``schedule``, ``at``, ``cancel``, ``tracer``, ``ids``.
:class:`LiveClock` satisfies that interface over a running asyncio
event loop, so the exact same engine/strategy/middleware code that runs
in virtual time runs in wall-clock time — hold timers become
``call_later`` timers (an event due now a ``call_soon``), process
think-times become real sleeps, and trace events carry real timestamps.

Two deliberate departures from a naive ``time.time()`` passthrough:

* **Shared epoch.**  Every peer process of a live run measures time as
  ``wall_clock - epoch`` with the *coordinator's* epoch, so timestamps
  in per-peer traces and message records are directly comparable (the
  sender stamps ``submit_time``, the receiver stamps ``complete_time``).
* **Sticky now.**  ``now`` only advances at event-loop entry points
  (:meth:`refresh` is called when a timer fires, a socket drains, or
  bytes arrive) — within one synchronous callback chain the clock is
  frozen, exactly like the discrete-event kernel.  This preserves
  engine invariants that compare freshly computed deadlines against
  ``now`` (e.g. a Nagle hold armed for ``now + delay`` can never be
  "already in the past" because Python took a microsecond to get
  there).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.sim.engine import RunIds
from repro.util.errors import SimulationError
from repro.util.tracing import NullTracer, Tracer

__all__ = ["LiveEvent", "LiveClock"]


class LiveEvent:
    """Handle for one scheduled callback (duck-types ``sim.event.Event``)."""

    __slots__ = ("time", "cancelled", "fired", "_handle")

    def __init__(self, when: float) -> None:
        self.time = when
        self.cancelled = False
        self.fired = False
        self._handle: Any = None

    def cancel(self) -> None:
        """Mark cancelled and release the underlying loop timer."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class LiveClock:
    """Wall-clock ``Simulator`` facade over an asyncio event loop.

    Parameters
    ----------
    loop:
        The running asyncio event loop that hosts the timers.
    epoch:
        Wall-clock origin (``time.time()`` units) shared by every peer
        of a run; ``now`` is seconds since this origin.
    time_scale:
        Real seconds per virtual second.  ``1.0`` (default) runs in real
        time; ``10.0`` stretches every engine delay tenfold (useful when
        eyeballing microsecond-scale hold timers).
    tracer:
        Shared tracer; defaults to a :class:`NullTracer` fast path.
    """

    def __init__(
        self,
        loop,
        epoch: float,
        time_scale: float = 1.0,
        tracer: Tracer | None = None,
    ) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be > 0, got {time_scale}")
        self._loop = loop
        self._epoch = epoch
        self._scale = time_scale
        self._now = max(0.0, (time.time() - epoch) / time_scale)
        self._pending = 0
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.ids = RunIds()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since the run epoch, frozen within one callback chain."""
        return self._now

    def refresh(self) -> float:
        """Advance ``now`` to the current wall clock (event-loop entry).

        Monotonic by construction: a wall-clock step backwards (NTP
        adjustment) never rewinds the run clock.
        """
        wall = (time.time() - self._epoch) / self._scale
        if wall > self._now:
            self._now = wall
        return self._now

    @property
    def time_scale(self) -> float:
        """Real seconds per virtual second (see constructor)."""
        return self._scale

    @property
    def pending_timers(self) -> int:
        """Scheduled callbacks that have neither fired nor been cancelled.

        The live quiescence detector uses this the way the simulated
        runner uses an empty event queue: zero pending timers means no
        locally originated future activity.
        """
        return self._pending

    # ------------------------------------------------------------------
    # scheduling (the Simulator interface)
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> LiveEvent:
        """Run ``fn(*args)`` ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._arm(self._now + delay, fn, args)

    def at(self, when: float, fn: Callable[..., Any], *args: Any) -> LiveEvent:
        """Run ``fn(*args)`` at an absolute run time ``>= now``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} which is before now={self._now}"
            )
        return self._arm(when, fn, args)

    def cancel(self, event: LiveEvent) -> None:
        """Cancel a pending event (no-op if already cancelled or fired)."""
        if not event.cancelled and not event.fired:
            event.cancel()
            self._pending -= 1

    def background(self, delay: float, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` ``delay`` virtual seconds from now, uncounted.

        The one timer that is not run activity: heartbeats, samplers,
        chaos injections, redials and deferred write releases must not
        hold quiescence open, so this never touches
        :attr:`pending_timers`.  ``now`` is refreshed before the call
        (a loop entry point, like every other); ``delay=0`` runs on the
        next loop iteration.  Returns the loop's handle (``.cancel()``).
        """
        return self._call(delay, self._enter, fn, args)

    def _call(self, delay: float, *callback: Any):
        """``callback`` ``delay`` virtual seconds out: no timer when due now."""
        if delay > 0:
            return self._loop.call_later(delay * self._scale, *callback)
        return self._loop.call_soon(*callback)

    def _enter(self, fn: Callable[..., Any], args: tuple) -> None:
        self.refresh()
        fn(*args)

    def _arm(self, when: float, fn: Callable[..., Any], args: tuple) -> LiveEvent:
        event = LiveEvent(when)
        event._handle = self._call(when - self.refresh(), self._fire, event, fn, args)
        self._pending += 1
        return event

    def _fire(self, event: LiveEvent, fn: Callable[..., Any], args: tuple) -> None:
        if event.cancelled:  # pragma: no cover - the handle was cancelled
            return
        event.fired = True
        self._pending -= 1
        self.refresh()
        # The scheduled instant is the *logical* time of the callback;
        # never let a coarse wall clock report an earlier one.
        if event.time > self._now:
            self._now = event.time
        fn(*args)
