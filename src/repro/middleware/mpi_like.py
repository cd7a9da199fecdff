"""MPI-style regular communication schemes.

:class:`PingPongApp` is the classic latency microbenchmark (closed
loop); :class:`StreamApp` is an open-loop unidirectional stream with
configurable arrival process and size distribution — the basic building
block of the multi-flow aggregation experiments, which
:func:`uniform_small_flows` instantiates N times over one node pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.madeleine.message import PackMode
from repro.middleware.base import MiddlewareApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["PingPongApp", "StreamApp", "uniform_small_flows"]


class PingPongApp(MiddlewareApp):
    """Closed-loop ping-pong: request, wait for echo, repeat.

    Collects one round-trip-time sample per iteration in :attr:`rtts`.
    """

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        size: int = 8,
        count: int = 100,
        header_size: int = 16,
        think_time: float = 0.0,
        traffic_class: TrafficClass = TrafficClass.DEFAULT,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        self.size = size
        self.count = count
        self.header_size = header_size
        self.think_time = think_time
        self.traffic_class = traffic_class
        #: Round-trip time samples (one per iteration).
        self.rtts: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        api_src = cluster.api(self.src)
        api_dst = cluster.api(self.dst)
        ping = api_src.open_flow(self.dst, f"{self.name}.ping", self.traffic_class)
        pong = api_dst.open_flow(self.src, f"{self.name}.pong", self.traffic_class)
        ping_inbox = api_dst.inbox(ping)
        pong_inbox = api_src.inbox(pong)
        sim = cluster.sim

        def client():
            for _ in range(self.count):
                start = sim.now
                api_src.send(ping, self.size, header_size=self.header_size)
                yield pong_inbox.get()
                self.rtts.append(sim.now - start)
                if self.think_time > 0:
                    yield self.think_time

        def server():
            for _ in range(self.count):
                yield ping_inbox.get()
                api_dst.send(pong, self.size, header_size=self.header_size)

        self.spawn(self.src, client(), "client")
        self.spawn(self.dst, server(), "server")


class StreamApp(MiddlewareApp):
    """Open-loop unidirectional message stream.

    ``interval`` is the mean inter-arrival time; with ``jitter=True``
    arrivals are exponential (Poisson process), otherwise periodic.
    ``size_sigma > 0`` draws lognormal sizes with the given spread
    around ``size`` (clamped to ``[1, 4·size]``).
    """

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        size: int = 256,
        count: int = 100,
        interval: float = 0.0,
        jitter: bool = True,
        size_sigma: float = 0.0,
        header_size: int = 16,
        mode: PackMode = PackMode.CHEAPER,
        traffic_class: TrafficClass = TrafficClass.DEFAULT,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if interval < 0:
            raise ConfigurationError(f"interval must be >= 0, got {interval}")
        self.size = size
        self.count = count
        self.interval = interval
        self.jitter = jitter
        self.size_sigma = size_sigma
        self.header_size = header_size
        self.mode = mode
        self.traffic_class = traffic_class
        #: Messages sent, with their completion futures.
        self.messages: list = []

    def _sample_interval(self, rng) -> float:
        if self.interval == 0:
            return 0.0
        if self.jitter:
            return rng.exponential(self.interval)
        return self.interval

    def _sample_size(self, rng) -> int:
        if self.size_sigma <= 0:
            return self.size
        return rng.lognormal_size(
            median=self.size, sigma=self.size_sigma, lo=1, hi=4 * self.size
        )

    def _start(self, cluster: "Cluster") -> None:
        api = cluster.api(self.src)
        flow = api.open_flow(self.dst, f"{self.name}.stream", self.traffic_class)
        rng = self.rng("arrivals")

        def sender():
            for _ in range(self.count):
                gap = self._sample_interval(rng)
                if gap > 0:
                    yield gap
                message = api.send(
                    flow,
                    self._sample_size(rng),
                    header_size=self.header_size,
                    mode=self.mode,
                )
                self.messages.append(message)

        self.spawn(self.src, sender(), "sender")


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
