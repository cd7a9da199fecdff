"""The mailbox on top of the event kernel.

:class:`Store` is an unbounded producer/consumer mailbox used for
receiver-side hand-off to middleware processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Simulator
from repro.sim.process import Future

__all__ = ["Store"]


class Store:
    """Unbounded FIFO mailbox bridging event-style producers and processes."""

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self._sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Future] = deque()

    def put(self, item: Any) -> None:
        """Deposit one item, waking the oldest blocked ``get`` if any."""
        if self._getters:
            self._getters.popleft().resolve(item)
        else:
            self._items.append(item)

    def get(self) -> Future:
        """Take the oldest item; resolves immediately if one is queued."""
        fut = Future()
        if self._items:
            fut.resolve(self._items.popleft())
        else:
            self._getters.append(fut)
        return fut

    def __len__(self) -> int:
        return len(self._items)
