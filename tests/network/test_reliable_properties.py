"""Property tests: the reliability protocol delivers exactly-once, in
order, under arbitrary seeded drop/duplicate/reorder patterns."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.faults import FaultPlane, FaultSpec
from repro.network.reliable import ReliabilityConfig, ReliableTransport
from repro.network.technologies import myrinet_mx
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator

OCC = 1e-6
ONE_WAY = 2e-6
SPACING = 1e-5  # inter-submit gap; > OCC so the NIC is idle again


def run_lossy_session(seed, drop, duplicate, jitter, n_packets, n_channels):
    sim = Simulator()
    fabric = Fabric(sim)
    network = fabric.add_network("mx0", myrinet_mx())
    for name in ("n0", "n1"):
        network.attach(fabric.add_node(name))
    plane = FaultPlane(
        FaultSpec(drop=drop, duplicate=duplicate, jitter=jitter), seed=seed
    )
    # A deep retry budget so pathological drop draws cannot exhaust it.
    transport = ReliableTransport(
        sim, fabric, plane, ReliabilityConfig(max_retries=64)
    )
    transport.install()
    received = []
    for node in fabric.nodes:
        node.receiver.register_default_sink(received.append)
    nic = fabric.node("n0").nics[0]
    for i in range(n_packets):
        packet = WirePacket(
            PacketKind.EAGER, "n0", "n1", i % n_channels, (WireSegment("x", 0, 64),),
            packet_id=i,
        )
        sim.at(i * SPACING, nic.submit, packet, OCC, ONE_WAY)
    sim.run()
    return transport, received


@given(
    seed=st.integers(0, 2**16),
    drop=st.floats(0.0, 0.5),
    duplicate=st.floats(0.0, 0.4),
    jitter=st.floats(0.0, 5e-5),
    n_packets=st.integers(1, 12),
    n_channels=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_exactly_once_in_order_delivery(
    seed, drop, duplicate, jitter, n_packets, n_channels
):
    transport, received = run_lossy_session(
        seed, drop, duplicate, jitter, n_packets, n_channels
    )
    # Every packet acknowledged; nothing left pending.
    assert transport.in_flight == 0
    # Exactly-once: every (channel, seq) pair dispatched precisely once.
    keys = [(p.channel_id, p.meta["rel_seq"]) for p in received]
    assert len(keys) == n_packets
    assert len(set(keys)) == n_packets
    # In-order per channel: dispatch order is the gap-free sequence 0..k.
    per_channel = defaultdict(list)
    for channel, seq in keys:
        per_channel[channel].append(seq)
    for seqs in per_channel.values():
        assert seqs == list(range(len(seqs)))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_same_seed_reproduces_fault_counters(seed):
    def counters():
        transport, received = run_lossy_session(
            seed, drop=0.3, duplicate=0.2, jitter=2e-5, n_packets=8, n_channels=2
        )
        stats = transport.plane.stats
        return (
            transport.stats.retransmits,
            transport.stats.dups_discarded,
            stats.drops,
            stats.duplicates,
            len(received),
        )

    assert counters() == counters()
