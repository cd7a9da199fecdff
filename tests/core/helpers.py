"""Shared fixtures for core-layer tests."""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.waiting import WaitingLists
from repro.drivers.registry import DRIVER_TYPES
from repro.madeleine.message import Flow, Message, PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.nic import NIC
from repro.network.technologies import TECHNOLOGIES
from repro.sim import Simulator


def make_driver(
    sim: Simulator, name: str = "mx0", node: str = "n0", link=None, tech: str = "mx"
):
    """A standalone driver (MX unless ``tech`` says otherwise) whose NIC
    is permissive about reachability."""
    deliveries: list = []
    nic = NIC(
        sim, name, node, link if link is not None else TECHNOLOGIES[tech](),
        lambda packet, occupancy: deliveries.append((sim.now, packet)),
    )
    return DRIVER_TYPES[tech](nic), deliveries


class StubEngine:
    """Just enough engine surface for the packet builder."""

    def __init__(self, drivers, config: EngineConfig | None = None, sim=None):
        self.sim = sim if sim is not None else Simulator()
        self.config = config if config is not None else EngineConfig()
        self.drivers = list(drivers)
        self.waiting = WaitingLists()
        self.parked: list[SubmitEntry] = []

    def park_for_rendezvous(self, entry: SubmitEntry, channel_id: int) -> None:
        self.waiting.queue(channel_id).remove(entry)
        entry.state = EntryState.RDV_PENDING
        self.parked.append(entry)


def data_entry(
    flow: Flow,
    size: int,
    mode: PackMode = PackMode.CHEAPER,
    express: bool = False,
    submit_time: float = 0.0,
) -> SubmitEntry:
    """A DATA submit entry wrapping a one-fragment message."""
    message = Message(flow)
    fragment = message.add_fragment(size, mode=mode, express=express)
    return SubmitEntry(
        EntryKind.DATA, flow.dst, submit_time, fragment=fragment, flow=flow
    )


def control_entry(dst: str = "n1", kind: EntryKind = EntryKind.RDV_REQ, **meta):
    """An engine-generated control entry."""
    return SubmitEntry(kind, dst, 0.0, meta=meta)
