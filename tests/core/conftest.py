"""The ``walk`` fixture: run a module's tests against the oracle too.

``src/`` has one decision walk.  The ``object`` leg patches its entry
points to the reference implementation in :mod:`tests.core.oracle`, so
every assertion a module makes about the production walk is also made
about the oracle the equivalence tests trust.
"""

from __future__ import annotations

import pytest

from tests.core.oracle import use_object_walk


@pytest.fixture(scope="module", params=["array", "object"])
def walk(request):
    """Run a whole module once per walk (``pytestmark = usefixtures``)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if request.param == "object":
            use_object_walk(monkeypatch)
        yield request.param
