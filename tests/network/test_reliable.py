"""Tests for the ACK/retransmit reliability protocol."""

import pytest

from repro.network.fabric import Fabric
from repro.network.faults import FaultPlane, FaultSpec, FaultVerdict
from repro.network.reliable import ReliabilityConfig, ReliableTransport
from repro.network.technologies import myrinet_mx, quadrics_elan
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator
from repro.util.errors import ConfigurationError, ProtocolError, TransportError

OCC = 1e-6
ONE_WAY = 2e-6


class ScriptedPlane(FaultPlane):
    """A plane replaying a fixed verdict script (then clean forever)."""

    def __init__(self, verdicts=(), ack_losses=()):
        super().__init__()
        self._verdicts = list(verdicts)
        self._ack_losses = list(ack_losses)

    def judge(self, nic):
        self.stats.judged += 1
        return self._verdicts.pop(0) if self._verdicts else FaultVerdict()

    def judge_ack(self, nic):
        return self._ack_losses.pop(0) if self._ack_losses else False


def make_stack(plane=None, config=None, n_networks=1):
    """Two-node fabric with a transport installed and a list-collecting sink."""
    sim = Simulator()
    fabric = Fabric(sim)
    techs = [myrinet_mx, quadrics_elan]
    for i in range(n_networks):
        network = fabric.add_network(f"net{i}", techs[i]())
        if i == 0:
            for name in ("n0", "n1"):
                network.attach(fabric.add_node(name))
        else:
            for name in ("n0", "n1"):
                network.attach(fabric.node(name))
    transport = ReliableTransport(sim, fabric, plane, config)
    transport.install()
    received = []
    for node in fabric.nodes:
        node.receiver.register_default_sink(received.append)
    return sim, fabric, transport, received


def data_packet(sim, channel=0, size=64, src="n0", dst="n1"):
    return WirePacket(
        PacketKind.EAGER, src, dst, channel, (WireSegment("x", 0, size),),
        packet_id=sim.ids.packet(),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(rto=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(ack_delay=-1.0)

    def test_rto_scales_with_one_way_and_backoff(self):
        config = ReliabilityConfig(backoff=2.0)
        assert config.rto_for(ONE_WAY, 0) == pytest.approx(4 * ONE_WAY)
        assert config.rto_for(ONE_WAY, 2) == pytest.approx(16 * ONE_WAY)
        fixed = ReliabilityConfig(rto=1e-3)
        assert fixed.rto_for(ONE_WAY, 1) == pytest.approx(2e-3)

    def test_from_spec(self):
        config = ReliabilityConfig.from_spec({"max_retries": 3, "backoff": 1.5})
        assert config.max_retries == 3 and config.backoff == 1.5

    def test_from_spec_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            ReliabilityConfig.from_spec({"retries": 3})


class TestCleanPath:
    def test_delivered_once_and_acknowledged(self):
        sim, fabric, transport, received = make_stack()
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        sim.run()
        assert len(received) == 1
        assert transport.in_flight == 0
        assert transport.stats.retransmits == 0
        assert transport.stats.acks_sent == 1

    def test_sequence_numbers_per_stream(self):
        sim, fabric, transport, received = make_stack()
        nic = fabric.node("n0").nics[0]
        for channel in (0, 0, 1):
            packet = data_packet(sim, channel=channel)
            nic.submit(packet, OCC, ONE_WAY)
            sim.run()
        seqs = [(p.channel_id, p.meta["rel_seq"]) for p in received]
        assert seqs == [(0, 0), (0, 1), (1, 0)]


class TestRetransmit:
    def test_dropped_packet_retransmitted_once(self):
        plane = ScriptedPlane(verdicts=[FaultVerdict(drop=True)])
        sim, fabric, transport, received = make_stack(plane)
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        sim.run()
        assert len(received) == 1
        assert transport.stats.retransmits == 1
        assert transport.in_flight == 0

    def test_corrupt_copy_discarded_and_retransmitted(self):
        plane = ScriptedPlane(verdicts=[FaultVerdict(corrupt=True)])
        sim, fabric, transport, received = make_stack(plane)
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        sim.run()
        assert len(received) == 1
        assert transport.stats.corrupt_discarded == 1
        assert transport.stats.retransmits == 1

    def test_duplicate_copy_deduplicated(self):
        plane = ScriptedPlane(verdicts=[FaultVerdict(duplicate=True)])
        sim, fabric, transport, received = make_stack(plane)
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        sim.run()
        assert len(received) == 1
        assert transport.stats.dups_discarded == 1
        assert transport.stats.retransmits == 0

    def test_lost_ack_triggers_reack_not_redelivery(self):
        plane = ScriptedPlane(ack_losses=[True])
        sim, fabric, transport, received = make_stack(plane)
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        sim.run()
        assert len(received) == 1  # retransmitted copy deduplicated
        assert transport.stats.retransmits == 1
        assert transport.stats.acks_dropped == 1
        assert transport.stats.dups_discarded == 1
        assert transport.in_flight == 0

    def test_retry_budget_exhaustion_raises(self):
        plane = FaultPlane(FaultSpec(drop=1.0))
        config = ReliabilityConfig(max_retries=2)
        sim, fabric, transport, received = make_stack(plane, config)
        fabric.node("n0").nics[0].submit(data_packet(sim), OCC, ONE_WAY)
        with pytest.raises(TransportError, match="unacknowledged after 3 attempts"):
            sim.run()
        assert received == []
        assert transport.stats.exhausted == 1


class TestReorderBuffer:
    def test_out_of_order_released_in_sequence(self):
        sim, fabric, transport, received = make_stack()
        packets = [data_packet(sim) for _ in range(3)]
        for seq, packet in enumerate(packets):
            packet.meta["rel_seq"] = seq
        transport._ingest(packets[2])
        transport._ingest(packets[0])
        assert [p.meta["rel_seq"] for p in received] == [0]
        transport._ingest(packets[1])  # releases 1 and buffered 2
        assert [p.meta["rel_seq"] for p in received] == [0, 1, 2]
        assert transport.stats.reorder_held == 1

    def test_stale_and_buffered_duplicates_discarded(self):
        sim, fabric, transport, received = make_stack()
        packets = [data_packet(sim) for _ in range(2)]
        for seq, packet in enumerate(packets):
            packet.meta["rel_seq"] = seq
        transport._ingest(packets[0])
        transport._ingest(packets[0])  # stale: seq below expected
        transport._ingest(packets[1])
        transport._ingest(packets[1])  # stale after flush
        assert len(received) == 2
        assert transport.stats.dups_discarded == 2

    def test_unsequenced_packet_passes_through(self):
        sim, fabric, transport, received = make_stack()
        transport._ingest(data_packet(sim))
        assert len(received) == 1


class TestFailover:
    def test_retransmit_fails_over_to_surviving_rail(self):
        plane = ScriptedPlane(verdicts=[FaultVerdict(drop=True)])
        sim, fabric, transport, received = make_stack(plane, n_networks=2)
        node = fabric.node("n0")
        primary, secondary = node.nics
        primary.submit(data_packet(sim), OCC, ONE_WAY)
        sim.schedule(4e-6, primary.fail)  # before the ~8e-6 retransmit timer
        sim.run()
        assert len(received) == 1
        assert transport.stats.failovers == 1
        assert transport.stats.retransmits == 1
        assert secondary.stats.retransmits == 1

    def test_no_survivor_keeps_retrying_then_raises(self):
        plane = ScriptedPlane(verdicts=[FaultVerdict(drop=True)])
        config = ReliabilityConfig(max_retries=2)
        sim, fabric, transport, received = make_stack(plane, config)
        primary = fabric.node("n0").nics[0]
        primary.submit(data_packet(sim), OCC, ONE_WAY)
        sim.schedule(4e-6, primary.fail)
        with pytest.raises(TransportError):
            sim.run()
        assert received == []


class TestGuardWiring:
    def test_install_routes_nics_and_guards_receivers(self):
        sim, fabric, transport, received = make_stack()
        for node in fabric.nodes:
            for nic in node.nics:
                assert nic.transport is transport
        with pytest.raises(ProtocolError):
            fabric.node("n0").receiver.install_guard(lambda p: None)

    def test_deliver_routes_through_guard(self):
        sim, fabric, transport, received = make_stack()
        packet = data_packet(sim)
        packet.meta["rel_seq"] = 1  # out of order: guard must hold it
        fabric.node("n1").receiver.deliver(packet)
        assert received == []
        assert transport.stats.reorder_held == 1
