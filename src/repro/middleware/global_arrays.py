"""Global-Arrays-style one-sided put/get traffic (paper ref. [5]).

Puts are fire-and-forget one-sided writes (open loop); gets are
round-trips (request + data response).  Transfer sizes follow a
heavy-tailed distribution — array patches range from a few elements to
whole tiles.  The operation sequence is drawn up front from the app's
deterministic RNG stream, so origin and home agree on the schedule
without extra signalling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.base import MiddlewareApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError
from repro.util.units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["GlobalArraysApp"]


class GlobalArraysApp(MiddlewareApp):
    """One-sided put/get workload over the PUTGET traffic class."""

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        operations: int = 100,
        get_fraction: float = 0.3,
        median_size: int = 2 * KiB,
        max_size: int = 64 * KiB,
        size_sigma: float = 1.2,
        interval: float = 0.0,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if operations < 1:
            raise ConfigurationError(f"operations must be >= 1, got {operations}")
        if not 0.0 <= get_fraction <= 1.0:
            raise ConfigurationError(
                f"get_fraction must be in [0, 1], got {get_fraction}"
            )
        self.operations = operations
        self.get_fraction = get_fraction
        self.median_size = median_size
        self.max_size = max_size
        self.size_sigma = size_sigma
        self.interval = interval
        #: Get round-trip latency samples.
        self.get_latencies: list[float] = []
        #: (op, size) log of issued operations (filled at install time).
        self.op_log: list[tuple[str, int]] = []

    def _start(self, cluster: "Cluster") -> None:
        api_src = cluster.api(self.src)
        api_dst = cluster.api(self.dst)
        put_flow = api_src.open_flow(self.dst, f"{self.name}.put", TrafficClass.PUTGET)
        get_req_flow = api_src.open_flow(
            self.dst, f"{self.name}.getreq", TrafficClass.CONTROL
        )
        get_data_flow = api_dst.open_flow(
            self.src, f"{self.name}.getdata", TrafficClass.PUTGET
        )
        get_req_inbox = api_dst.inbox(get_req_flow)
        get_data_inbox = api_src.inbox(get_data_flow)
        sim = cluster.sim
        rng = self.rng("ops")

        # Draw the whole schedule up front (deterministic RNG): origin
        # and home then agree on the number and sizes of get responses.
        self.op_log = [
            (
                "get" if rng.uniform() < self.get_fraction else "put",
                rng.lognormal_size(
                    self.median_size, self.size_sigma, lo=64, hi=self.max_size
                ),
            )
            for _ in range(self.operations)
        ]
        get_sizes = [size for op, size in self.op_log if op == "get"]

        def origin():
            for op, size in self.op_log:
                if self.interval > 0:
                    yield rng.exponential(self.interval)
                if op == "get":
                    start = sim.now
                    session = api_src.begin(get_req_flow)
                    session.pack(24, express=True)  # patch descriptor
                    session.flush()
                    yield get_data_inbox.get()
                    self.get_latencies.append(sim.now - start)
                else:
                    api_src.send(put_flow, size, header_size=24)

        def home():
            for size in get_sizes:
                yield get_req_inbox.get()
                api_dst.send(get_data_flow, size, header_size=24)

        self.spawn(self.src, origin(), "origin")
        if get_sizes:
            self.spawn(self.dst, home(), "home")
