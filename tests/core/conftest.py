"""Fixtures that force the decision kernel's object walk.

The code picks the walk from what :func:`repro.core.kernel.constants_for`
reports (``exact``); these fixtures make it report ``exact=False`` for
every driver, which is what a driver subclass overriding a folded method
gets on its own.
"""

from __future__ import annotations

import pytest

from repro.core import kernel


def _force_object_walk(monkeypatch: pytest.MonkeyPatch) -> None:
    real = kernel.constants_for

    def inexact(driver):
        consts = real(driver)
        consts.exact = False
        return consts

    monkeypatch.setattr(kernel, "constants_for", inexact)


@pytest.fixture
def reference_mode(monkeypatch):
    """A callable that switches the rest of the test to the object walk."""
    return lambda: _force_object_walk(monkeypatch)


@pytest.fixture(scope="module", params=["array", "object"])
def walk(request):
    """Run a whole module once per walk (``pytestmark = usefixtures``)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if request.param == "object":
            _force_object_walk(monkeypatch)
        yield request.param
