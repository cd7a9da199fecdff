"""Control-plane traffic: small, latency-critical signalling messages.

Heartbeats, barrier tokens, credit updates — the "control/signalling
messages" class the paper's scheduler wants on its own channel (§2).
The E7 experiment measures how much their latency suffers when bulk
traffic shares their path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.base import MiddlewareApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["ControlPlaneApp"]


class ControlPlaneApp(MiddlewareApp):
    """Periodic tiny control messages with per-message latency tracking."""

    def __init__(
        self,
        src: str = "n0",
        dst: str = "n1",
        *,
        count: int = 100,
        size: int = 32,
        interval: float = 5e-6,
        jitter: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(src, dst, name)
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if interval < 0:
            raise ConfigurationError(f"interval must be >= 0, got {interval}")
        self.count = count
        self.size = size
        self.interval = interval
        self.jitter = jitter
        #: Per-message delivery latency samples.
        self.latencies: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        api = cluster.api(self.src)
        flow = api.open_flow(self.dst, f"{self.name}.ctl", TrafficClass.CONTROL)
        rng = self.rng("ticks")
        sim = cluster.sim

        def record(message, completed_at: float) -> None:
            assert message.submit_time is not None
            self.latencies.append(completed_at - message.submit_time)

        cluster.api(self.dst).subscribe(flow, record)

        def ticker():
            for _ in range(self.count):
                if self.interval > 0:
                    yield rng.exponential(self.interval) if self.jitter else self.interval
                api.send(flow, self.size, header_size=8)

        self.spawn(self.src, ticker(), "ticker")
