"""PadicoTM-style middleware integration (paper ref. [2]).

Modern applications run *several* middlewares at once over the same
node pair; :class:`IntegratorApp` composes any set of middleware apps
and reports on them as a unit.  :func:`uniform_small_flows` builds the
canonical multi-flow aggregation workload of experiment E2: N
independent flows of small eager messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.middleware.base import MiddlewareApp
from repro.middleware.mpi_like import StreamApp
from repro.network.virtual import TrafficClass
from repro.sim.process import all_of
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["IntegratorApp", "uniform_small_flows"]


class IntegratorApp(MiddlewareApp):
    """Runs several middleware apps between the same node pair."""

    def __init__(
        self,
        parts: Sequence[MiddlewareApp],
        *,
        name: str | None = None,
    ) -> None:
        if not parts:
            raise ConfigurationError("an integrator needs at least one part")
        endpoints = {(p.src, p.dst) for p in parts} | {(p.dst, p.src) for p in parts}
        srcs = {p.src for p in parts} | {p.dst for p in parts}
        if len(srcs) != 2:
            raise ConfigurationError(
                f"integrator parts must share one node pair, got nodes {sorted(srcs)}"
            )
        del endpoints
        super().__init__(parts[0].src, parts[0].dst, name)
        self.parts = list(parts)

    def _start(self, cluster: "Cluster") -> None:
        for part in self.parts:
            part.install(cluster)

    def install(self, cluster: "Cluster") -> "IntegratorApp":
        self._attach(cluster)
        self._start(cluster)
        all_of([p.done for p in self.parts]).add_callback(
            lambda _value: self.done.resolve(None)
        )
        return self


def uniform_small_flows(
    n_flows: int,
    *,
    src: str = "n0",
    dst: str = "n1",
    size: int = 256,
    count: int = 100,
    interval: float = 0.0,
    jitter: bool = True,
    traffic_class: TrafficClass = TrafficClass.DEFAULT,
) -> list[StreamApp]:
    """N independent small-message streams between one node pair (E2)."""
    if n_flows < 1:
        raise ConfigurationError(f"n_flows must be >= 1, got {n_flows}")
    return [
        StreamApp(
            src,
            dst,
            size=size,
            count=count,
            interval=interval,
            jitter=jitter,
            traffic_class=traffic_class,
            name=f"flow{i}",
        )
        for i in range(n_flows)
    ]
