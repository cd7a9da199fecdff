"""Distributed-shared-memory middleware traffic.

A page-based DSM in the PM2 lineage: a page *fault* sends a small
control request to the page's home node, which answers with the page
contents.  Faults are latency-critical (the faulting thread is stalled),
pages are medium-sized — a traffic mix that punishes head-of-line
blocking behind bulk transfers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.base import MiddlewareApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError
from repro.util.units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["DsmApp"]


class DsmApp(MiddlewareApp):
    """Page-fault / page-response DSM traffic between two nodes."""

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        faults: int = 50,
        page_size: int = 4 * KiB,
        request_size: int = 64,
        fault_interval: float = 0.0,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if faults < 1:
            raise ConfigurationError(f"faults must be >= 1, got {faults}")
        self.faults = faults
        self.page_size = page_size
        self.request_size = request_size
        self.fault_interval = fault_interval
        #: Fault-to-page-arrival latency samples.
        self.fault_latencies: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        api_src = cluster.api(self.src)
        api_dst = cluster.api(self.dst)
        # Fault requests are small control messages; page responses are
        # one-sided-style transfers (put/get class).
        fault_flow = api_src.open_flow(
            self.dst, f"{self.name}.fault", TrafficClass.CONTROL
        )
        page_flow = api_dst.open_flow(
            self.src, f"{self.name}.page", TrafficClass.PUTGET
        )
        fault_inbox = api_dst.inbox(fault_flow)
        page_inbox = api_src.inbox(page_flow)
        sim = cluster.sim
        rng = self.rng("faults")

        def faulting_thread():
            for _ in range(self.faults):
                if self.fault_interval > 0:
                    yield rng.exponential(self.fault_interval)
                start = sim.now
                api_src.send(fault_flow, self.request_size, header_size=16)
                yield page_inbox.get()  # thread stalls until the page lands
                self.fault_latencies.append(sim.now - start)

        def home_node():
            for _ in range(self.faults):
                yield fault_inbox.get()
                api_dst.send(page_flow, self.page_size, header_size=16)

        self.spawn(self.src, faulting_thread(), "fault")
        self.spawn(self.dst, home_node(), "home")
