"""The ``walk`` fixture: run a module's tests against the oracle too.

``src/`` has one decision walk.  The ``object`` leg patches its entry
points to the reference implementation in :mod:`tests.core.oracle`, so
every assertion a module makes about the production walk is also made
about the oracle the equivalence tests trust.
"""

from __future__ import annotations

import pytest

from repro.core.strategies.search import BoundedSearchStrategy

from tests.core.oracle import use_object_walk


@pytest.fixture(scope="module", autouse=True)
def _oracle_memo_state():
    """The oracle keeps its score memo on the strategy instance
    (``_score_cache`` / ``_cache_now``) and stays byte-unchanged; the
    production strategy has no memo, so the reference's state is given
    to every strategy instance from here."""
    production_init = BoundedSearchStrategy.__init__

    def init_with_memo(self, *args, **kwargs):
        production_init(self, *args, **kwargs)
        self._score_cache = {}
        self._cache_now = None

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(BoundedSearchStrategy, "__init__", init_with_memo)
        yield


@pytest.fixture(scope="module", params=["array", "object"])
def walk(request):
    """Run a whole module once per walk (``pytestmark = usefixtures``)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if request.param == "object":
            use_object_walk(monkeypatch)
        yield request.param
