"""Discrete-event simulation kernel.

A deliberately small, deterministic event engine:

* :class:`~repro.sim.engine.Simulator` — the clock and event loop;
* :class:`~repro.sim.event.Event` / :class:`~repro.sim.event.EventQueue` —
  cancellable scheduled callbacks with deterministic tie-breaking;
* :class:`~repro.sim.process.Process` / :class:`~repro.sim.process.Future`
  — generator-based cooperative processes for closed-loop workloads;
* :class:`~repro.sim.resources.Store` — the mailbox that hands received
  messages to middleware processes.

Everything above (:mod:`repro.network`, :mod:`repro.core`, …) runs inside
one :class:`Simulator` per experiment.
"""

from repro.sim.engine import Simulator
from repro.sim.event import Event, EventQueue
from repro.sim.process import Future, Process, all_of
from repro.sim.resources import Store

__all__ = [
    "Event",
    "EventQueue",
    "Future",
    "Process",
    "Simulator",
    "Store",
    "all_of",
]
