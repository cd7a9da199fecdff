"""Suite-wide instruments.

* Every in-process dispatch is checked.  ``CommEngineBase._dispatch`` is
  wrapped for the whole session so each plan meets the ``Dispatch``
  invariants of :mod:`tests.invariants`: before it consumes a byte
  (``plan_valid``: the paper's §3 message-structure rules), and after,
  against the busy time it charged a simulated NIC (``priced_as_charged``:
  the cost model's occupancy is the charge).  Production runs no such
  check; its engine→NIC boundary is ``Driver.validate``.
* Hypothesis profiles.  ``deep`` runs ten times the examples of the
  default profile; CI runs the generated configuration space under it
  (``pytest tests/integration/test_generated.py --hypothesis-profile=deep``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.engine import CommEngineBase
from repro.live.nic import LiveNIC

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
