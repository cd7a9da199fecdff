"""Shared fixtures for core-layer tests."""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.waiting import WaitingLists
from repro.drivers.registry import DRIVER_TYPES
from repro.madeleine.message import Flow, Message, PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.nic import NIC
from repro.network.technologies import TECHNOLOGIES
from repro.runtime.cluster import Cluster
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


def next_message(flow: Flow, context: dict | None = None) -> Message:
    """The flow's next message, numbered the way ``PackingSession`` does."""
    message = Message(flow, context, seq=flow.messages_sent)
    flow.messages_sent += 1
    return message


def data_entry(
    flow: Flow,
    size: int,
    mode: PackMode = PackMode.CHEAPER,
    express: bool = False,
    submit_time: float = 0.0,
) -> SubmitEntry:
    """A DATA submit entry wrapping a one-fragment message."""
    message = next_message(flow)
    fragment = message.add_fragment(size, mode=mode, express=express)
    return SubmitEntry(
        EntryKind.DATA, flow.dst, submit_time, fragment=fragment, flow=flow
    )


def control_entry(dst: str = "n1", kind: EntryKind = EntryKind.RDV_REQ, **meta):
    """An engine-generated control entry."""
    return SubmitEntry(kind, dst, 0.0, meta=meta)


def plan_signature(plan):
    """Order-sensitive, object-identity-free fingerprint of a plan."""
    if plan is None:
        return None
    return (
        str(plan.kind),
        plan.dst,
        plan.channel_id,
        tuple(
            (
                item.entry.flow.name if item.entry.flow is not None else None,
                item.entry.fragment.index if item.entry.fragment is not None else None,
                item.entry.kind.value,
                item.entry.offset,
                item.take,
            )
            for item in plan.items
        ),
    )


def build_loaded_cluster(
    depth: int,
    *,
    n_flows: int = 8,
    strategy=None,
    config: EngineConfig | None = None,
) -> Cluster:
    """A 2-node cluster whose ``n0`` engine holds ``depth`` pending entries.

    256-byte entries (small enough that no driver wants a rendezvous)
    are enqueued directly (no pump is triggered), interleaved
    round-robin over ``n_flows`` independent flows so cross-flow
    aggregation opportunities exist at every seed.
    """
    cluster = Cluster(seed=0, strategy=strategy, config=config)
    engine = cluster.engine("n0")
    flows = [Flow(i, f"bench-f{i}", "n0", "n1") for i in range(n_flows)]
    for i in range(depth):
        entry = data_entry(flows[i % n_flows], 256)
        entry.fragment.message.mark_flushed(0.0)
        engine._enqueue(entry)
    return cluster
