"""The ``nagle`` strategy: artificial small-backlog delay.

Paper §3: when the NIC never stays busy long enough for a backlog to
accumulate, the scheduler "may artificially delay [packets] for a short
time to increase the potential of interesting aggregations (in a TCP
Nagle's algorithm fashion)".

One build plus one gate: the packet ``aggregate`` would send is *held*
while it is an eager packet younger than ``nagle_delay`` and smaller
than ``nagle_min_bytes``.  Control and rendezvous traffic is never held
— delaying a handshake stalls a bulk transfer end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.kernel import SeedBuild
from repro.core.plan import Hold, TransferPlan
from repro.core.strategies._builder import first_build, seed_from_queue
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver
from repro.network.wire import PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["NagleStrategy", "gated_plan"]


def gated_plan(
    engine: "CommEngineBase",
    driver: Driver,
    delay: float,
    min_bytes: int,
    release_pending: float = float("inf"),
) -> TransferPlan | Hold | None:
    """``aggregate``'s packet for ``driver``, or a Hold while it is small
    and young — read off the kernel's build; plan items exist only for a
    packet that is sent.  The Hold stands until the backlog could fill
    ``min_bytes``, holds an entry the driver would park for rendezvous
    (protocol work, never held) or reaches ``release_pending`` entries.
    """
    built = first_build(engine, driver, seed_from_queue)
    if type(built) is SeedBuild:
        payload, oldest = built.payload_prefix[-1], built.oldest_prefix[-1]
    elif built is None or built.kind is not PacketKind.EAGER:
        return built
    else:  # a fragment that travels alone
        payload, oldest = built.payload_bytes, min(i.entry.submit_time for i in built.items)
    deadline = oldest + delay
    if delay > 0 and payload < min_bytes and engine.sim.now < deadline:
        rdv = driver.constants.rdv_threshold
        release_bytes = min_bytes if rdv is None or rdv > min_bytes else rdv
        return Hold(deadline, release_bytes, release_pending)
    return built.plan(built.n_items) if type(built) is SeedBuild else built


@register_strategy("nagle")
class NagleStrategy(Strategy):
    """Hold small young eager plans hoping for better aggregations."""

    def __init__(self, delay: float | None = None, min_bytes: int | None = None) -> None:
        #: Overrides of the engine-config values (None: use the config).
        self.delay = delay
        self.min_bytes = min_bytes

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        config = engine.config
        delay = config.nagle_delay if self.delay is None else self.delay
        min_bytes = config.nagle_min_bytes if self.min_bytes is None else self.min_bytes
        return gated_plan(engine, driver, delay, min_bytes)
