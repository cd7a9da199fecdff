"""RPC middleware traffic (CORBA / Java-RMI style).

Each call is a structured request — an express marshalling header
naming the method, plus an argument payload — answered by a structured
response after a server-side service time.  ``concurrency`` models a
multithreaded client runtime keeping several calls outstanding over the
same flow (the irregular scheme Madeleine targets, paper §2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.base import MiddlewareApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["RpcApp"]


class RpcApp(MiddlewareApp):
    """Closed-loop RPC client/server pair with configurable concurrency."""

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        calls: int = 100,
        arg_size: int = 256,
        result_size: int = 256,
        header_size: int = 32,
        service_time: float = 0.0,
        think_time: float = 0.0,
        concurrency: int = 1,
        size_sigma: float = 0.8,
        traffic_class: TrafficClass = TrafficClass.DEFAULT,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if calls < 1 or concurrency < 1:
            raise ConfigurationError("calls and concurrency must be >= 1")
        if concurrency > calls:
            raise ConfigurationError(
                f"concurrency {concurrency} exceeds total calls {calls}"
            )
        self.calls = calls
        self.arg_size = arg_size
        self.result_size = result_size
        self.header_size = header_size
        self.service_time = service_time
        self.think_time = think_time
        self.concurrency = concurrency
        self.size_sigma = size_sigma
        self.traffic_class = traffic_class
        #: Per-call completion latency samples (request submit → response).
        self.call_latencies: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        api_src = cluster.api(self.src)
        api_dst = cluster.api(self.dst)
        requests = api_src.open_flow(self.dst, f"{self.name}.req", self.traffic_class)
        responses = api_dst.open_flow(self.src, f"{self.name}.rep", self.traffic_class)
        request_inbox = api_dst.inbox(requests)
        response_inbox = api_src.inbox(responses)
        sim = cluster.sim
        rng = self.rng("sizes")

        per_worker = self.calls // self.concurrency
        remainder = self.calls % self.concurrency

        def sample(base: int) -> int:
            if self.size_sigma <= 0:
                return base
            return rng.lognormal_size(base, self.size_sigma, lo=8, hi=16 * base)

        def client(n_calls: int):
            for _ in range(n_calls):
                start = sim.now
                session = api_src.begin(requests)
                session.pack(self.header_size, express=True)  # method id + ids
                session.pack(sample(self.arg_size))  # marshalled args
                session.flush()
                yield response_inbox.get()
                self.call_latencies.append(sim.now - start)
                if self.think_time > 0:
                    yield self.think_time

        def server():
            for _ in range(self.calls):
                yield request_inbox.get()
                if self.service_time > 0:
                    yield self.service_time
                session = api_dst.begin(responses)
                session.pack(self.header_size, express=True)  # status header
                session.pack(sample(self.result_size))  # marshalled result
                session.flush()

        for worker in range(self.concurrency):
            n = per_worker + (1 if worker < remainder else 0)
            if n:
                self.spawn(self.src, client(n), f"client{worker}")
        self.spawn(self.dst, server(), "server")
