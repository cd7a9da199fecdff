"""Suite-wide instruments.

* Every in-process dispatch is checked.  ``CommEngineBase._dispatch`` is
  wrapped for the whole session so each plan meets the ``Dispatch``
  invariants of :mod:`tests.invariants` (``plan_valid``: the paper's §3
  message-structure rules) before it consumes a byte.  Production runs
  no such check; its engine→NIC boundary is ``Driver.validate``.
* Hypothesis profiles.  ``deep`` runs ten times the examples of the
  default profile; CI runs the generated configuration space under it
  (``pytest tests/integration/test_generated.py --hypothesis-profile=deep``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.engine import CommEngineBase

from tests.invariants import INVARIANTS, Dispatch

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)


@pytest.fixture(scope="session", autouse=True)
def _every_dispatch_checked():
    checks = [inv.check for inv in INVARIANTS.on(Dispatch)]
    dispatch = CommEngineBase._dispatch

    def checked_dispatch(self, plan):
        subject = Dispatch(self, plan)
        for check in checks:
            check(subject)
        dispatch(self, plan)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CommEngineBase, "_dispatch", checked_dispatch)
        yield
