"""Live-peer observability: the full plane inside one peer process.

A live peer gets the same :class:`~repro.obs.plane.ObservabilityPlane`
a simulated cluster gets, installed on the
:class:`~repro.live.peer.LivePeer` itself (which carries the cluster
attributes the plane and the sampler read).  What differs is that time
is wall-clock and quiescence is watched: the base
:class:`~repro.obs.sampler.ObservabilitySampler` keeps itself alive by
rescheduling on the simulator queue; on a :class:`~repro.live.loop.LiveClock`
that would hold ``pending_timers`` above zero forever and the peer
would never look quiet.  :class:`LiveSampler` therefore drives the
same ``sample_once`` core from the clock's uncounted ``background``
timers, which the quiescence predicate deliberately does not see.

:class:`SpoolSink` is the streaming half and the peer's one trace
recorder: a bounded buffer of events since the last coordinator
``FLUSH``, drained into the control protocol every poll so no cap ever
truncates the run's trace.
"""

from __future__ import annotations

from typing import Any

from repro.obs.sampler import ObservabilitySampler
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

__all__ = ["SpoolSink", "LiveSampler"]

#: Events the spool holds between coordinator flushes.  At the
#: coordinator's ~20 ms poll cadence this is far beyond any realistic
#: emit rate; hitting it means the coordinator stopped draining, and the
#: spool degrades to counting drops rather than growing without bound.
SPOOL_CAPACITY = 250_000


class SpoolSink:
    """Bounded buffer of trace events awaiting the next coordinator flush."""

    def __init__(self, capacity: int = SPOOL_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(f"spool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.seen = 0
        self.dropped = 0
        #: Events received per kind, dropped ones included.
        self.counts: dict[str, int] = {}

    def __call__(self, event: TraceEvent) -> None:
        self.seen += 1
        counts = self.counts
        counts[event[2]] = counts.get(event[2], 0) + 1
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def drain(self) -> list[TraceEvent]:
        """Hand over everything buffered; the spool restarts empty."""
        drained = self.events
        self.events = []
        return drained

    def __len__(self) -> int:
        return len(self.events)


class LiveSampler(ObservabilitySampler):
    """Wall-clock cadence for the shared ``sample_once`` core.

    Timers are :meth:`~repro.live.loop.LiveClock.background` timers —
    never ``clock.schedule`` — so the peer's quiescence predicate
    (``pending_timers == 0``) is not pinned high by the sampler's own
    heartbeat.  The interval is in virtual seconds, matching what the
    same scenario block means in a simulated run.
    """

    def __init__(
        self,
        cluster: Any,
        interval: float,
        *,
        registry=None,
        source: str = "obs:sampler",
    ) -> None:
        super().__init__(
            cluster, interval, registry=registry, source=source, autostart=False
        )
        self._clock = cluster.sim
        self._handle: Any = None
        self._stopped = False

    def start(self) -> "LiveSampler":
        """Begin ticking (first sample after one interval); returns self."""
        if self._handle is None and not self._stopped:
            self._arm()
        return self

    def _arm(self) -> None:
        self._handle = self._clock.background(self.interval, self._wall_tick)

    def _wall_tick(self) -> None:
        if self._stopped:
            return
        self.sample_once()
        self._arm()

    def stop(self) -> None:
        """Stop ticking (idempotent)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
