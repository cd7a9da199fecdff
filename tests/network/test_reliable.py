"""Tests for the ACK/retransmit reliability protocol."""

import asyncio
import time

import pytest

from repro.live.loop import LiveClock
from repro.network.fabric import Fabric
from repro.network.faults import FaultPlane, FaultSpec, FaultVerdict
from repro.network.reliable import (
    ReliabilityConfig,
    ReliableTransport,
    SendWindow,
    TransportStats,
)
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


class _Carrier:
    """A scripted carrier: logs every attempt, is down while told to be."""

    def __init__(self, clock, down_for=0):
        self.clock = clock
        self.down_for = down_for  # the first this-many calls find the link down
        self.calls = []  # (now, seq, item, attempt, made)
        self.exhausted = []  # (now, seq, item, attempts)

    def carry(self, seq, item, attempt):
        made = len(self.calls) >= self.down_for
        self.calls.append((self.clock.now, seq, item, attempt, made))
        return made

    def on_exhausted(self, seq, item, attempts):
        self.exhausted.append((self.clock.now, seq, item, attempts))


def make_window(clock, down_for=0, **config):
    carrier = _Carrier(clock, down_for)
    stats = TransportStats()
    window = SendWindow(
        clock, ReliabilityConfig(**config), carrier.carry, carrier.on_exhausted, stats
    )
    return window, carrier, stats


class TestSendWindow:
    """The sender half on its own: no fabric, no sockets, a scripted carrier."""

    @pytest.mark.parametrize("clock_kind", ["sim", "live"])
    def test_backoff_schedule_then_exhaustion_once(self, clock_kind):
        # rto 1, backoff 2, 3 retries: attempts at 0, 1, 3, 7; gives up at 15.
        if clock_kind == "sim":
            clock, unit = Simulator(), 1.0
        else:  # the same protocol on wall-clock time, millisecond RTOs
            loop = asyncio.new_event_loop()
            clock, unit = LiveClock(loop, epoch=time.time()), 2e-3
        window, carrier, stats = make_window(clock, rto=unit, backoff=2.0, max_retries=3)
        start = clock.now
        assert window.send("item", one_way=123.0) == 0  # an explicit rto wins
        if clock_kind == "sim":
            clock.run()
        else:
            loop.run_until_complete(asyncio.sleep(25 * unit))
            loop.close()
        assert [(seq, item, k, made) for _, seq, item, k, made in carrier.calls] == [
            (0, "item", k, True) for k in range(4)
        ]
        elapsed = [(now - start) / unit for now, *_ in carrier.calls]
        ((gave_up, *reported),) = carrier.exhausted  # exactly once
        assert reported == [0, "item", 4]
        if clock_kind == "sim":
            assert elapsed == [0.0, 1.0, 3.0, 7.0] and gave_up == 15.0
            assert clock.pending_events == 0
        else:  # a timer never fires early; the loop may run it late
            assert all(got >= due for got, due in zip(elapsed, [0, 1, 3, 7]))
            assert (gave_up - start) / unit >= 15
            assert clock.pending_timers == 0
        assert window.in_flight == 0  # forgotten, not retried forever
        assert (stats.packets_sent, stats.retransmits, stats.exhausted) == (1, 3, 1)

    def test_default_rto_scales_with_the_items_one_way(self):
        sim = Simulator()
        window, carrier, _ = make_window(sim, max_retries=1)
        window.send("a", one_way=ONE_WAY)
        sim.run()
        assert [now for now, *_ in carrier.calls] == [0.0, pytest.approx(4 * ONE_WAY)]

    def test_ack_cancels_the_timer(self):
        sim = Simulator()
        window, carrier, stats = make_window(sim, rto=1.0)
        for item in ("a", "b"):
            window.send(item, ONE_WAY)
        assert window.in_flight == 2 and window.next_seq == 2
        sim.schedule(0.5, window.ack, 0)
        sim.run(until=0.75)
        assert window.in_flight == 1 and sim.pending_events == 1  # b's timer
        window.ack(1)
        assert window.in_flight == 0 and sim.pending_events == 0
        window.ack(1)  # late ACK of something already retired: ignored
        sim.run()
        assert len(carrier.calls) == 2 and stats.retransmits == 0
        assert carrier.exhausted == []

    def test_down_carrier_rearms_without_spending_budget_or_backing_off(self):
        sim = Simulator()
        window, carrier, stats = make_window(
            sim, down_for=3, rto=1.0, backoff=2.0, max_retries=1
        )
        window.send("item", ONE_WAY)
        sim.run()
        assert [(now, k, made) for now, _, _, k, made in carrier.calls] == [
            (0.0, 0, False),  # link down: nothing sent, nothing spent,
            (1.0, 0, False),  # same timeout again,
            (2.0, 0, False),
            (3.0, 0, True),  # up: this is the first transmission
            (4.0, 1, True),  # ... and the only retry the budget allows
        ]
        assert carrier.exhausted == [(6.0, 0, "item", 2)]
        assert (stats.retransmits, stats.exhausted) == (1, 1)

    def test_close_leaves_no_timer(self):
        sim = Simulator()
        window, carrier, _ = make_window(sim, rto=1.0)
        for item in "abc":
            window.send(item, ONE_WAY)
        window.ack(1)
        assert window.in_flight == 2 and sim.pending_events == 2
        window.close()
        assert window.in_flight == 0 and sim.pending_events == 0
        sim.run()
        assert len(carrier.calls) == 3 and carrier.exhausted == []
        assert window.send("d", ONE_WAY) == 3  # the sequence space goes on


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
