"""Suite-wide instruments.

* Every in-process dispatch is checked.  ``CommEngineBase._dispatch`` is
  wrapped for the whole session so each plan meets the ``Dispatch``
  invariants of :mod:`tests.invariants`: before it consumes a byte
  (``plan_valid``: the paper's §3 message-structure rules), and after,
  against the busy time it charged a simulated NIC (``priced_as_charged``:
  the cost model's occupancy is the charge).  Production runs no such
  check; its engine→NIC boundary is ``Driver.validate``.
* Every in-process trace event is checked.  ``Tracer.subscribe`` wraps
  the tracer's ``emit`` so every event is ``(time, source, kind,
  *fields)`` with exactly the fields ``KINDS`` declares for its kind,
  each an atom the garbage collector can untrack (:func:`check_event`).
  Production checks nothing.
* Hypothesis profiles.  ``deep`` runs ten times the examples of the
  default profile; CI runs the generated configuration space under it
  (``pytest tests/integration/test_generated.py --hypothesis-profile=deep``).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import settings

from repro.core.engine import CommEngineBase
from repro.live.nic import LiveNIC
from repro.util.tracing import ABSENT, KINDS, Tracer

from tests.invariants import INVARIANTS, Dispatch

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)


@pytest.fixture(scope="session", autouse=True)
def _every_dispatch_checked():
    checks = [inv.check for inv in INVARIANTS.on(Dispatch)]
    dispatch = CommEngineBase._dispatch

    def checked_dispatch(self, plan):
        before = Dispatch(self, plan)
        for check in checks:
            check(before)
        nic = plan.driver.nic
        if isinstance(nic, LiveNIC):
            dispatch(self, plan)
            return
        # Zeroed for the dispatch, the counter reads back the charge
        # exactly; restored, it holds what the NIC's own sum would.
        stats = nic.stats
        busy = stats.busy_time
        stats.busy_time = 0.0
        try:
            dispatch(self, plan)
        finally:
            charged = stats.busy_time
            stats.busy_time = busy + charged
        after = Dispatch(self, plan, charged)
        for check in checks:
            check(after)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CommEngineBase, "_dispatch", checked_dispatch)
        yield


#: Types whose values are trace-event atoms (a tuple of atoms is one).
_ATOMS = frozenset((int, float, str, bool, type(None)))


def _is_atom(value) -> bool:
    if type(value) is tuple:
        return all(map(_is_atom, value))
    return value is ABSENT or type(value) in _ATOMS


def check_event(event: tuple) -> None:
    """Raise ``AssertionError`` unless ``event`` has its kind's exact
    arity and every field is an atom."""
    time, source, kind, *fields = event
    names = KINDS.get(kind)
    assert names is not None, f"unknown trace event kind {kind!r}"
    assert len(fields) == len(names), (
        f"{kind} takes {len(names)} fields {names}, got {len(fields)}: {fields}"
    )
    assert type(time) is float and type(source) is str, event
    bad = [name for name, value in zip(names, fields) if not _is_atom(value)]
    assert not bad, f"{kind}: fields {bad} are not atoms: {event}"


@pytest.fixture(scope="session", autouse=True)
def _every_event_checked():
    subscribe = Tracer.subscribe

    @functools.wraps(subscribe)
    def checked_subscribe(self, sink):
        subscribe(self, sink)
        dispatch = self.emit

        def checked(event):
            check_event(event)
            dispatch(event)

        self.emit = checked

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Tracer, "subscribe", checked_subscribe)
        yield
