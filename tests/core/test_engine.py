"""Integration tests for the optimizing engine: activation discipline,
dispatch, rendezvous protocol, holds, multirail."""

import pytest

from repro.core.config import EngineConfig
from repro.core.strategies import NagleStrategy
from repro.madeleine.message import PackMode
from repro.network.virtual import TrafficClass
from repro.obs.recorder import ListSink
from repro.runtime.cluster import Cluster
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us


def two_node_cluster(**kwargs):
    kwargs.setdefault("n_nodes", 2)
    return Cluster(**kwargs)


def traced_two_node_cluster():
    """A two-node cluster plus the sink recording every event it emits."""
    cluster = two_node_cluster()
    recorded = ListSink()
    cluster.sim.tracer.subscribe(recorded)
    return cluster, recorded


def activations(recorded):
    return [e for e in recorded.events if e.kind == "optimizer.activate"]


class TestActivationDiscipline:
    def test_submit_on_idle_nic_sends_immediately(self):
        c, recorded = traced_two_node_cluster()
        api = c.api("n0")
        api.send(api.open_flow("n1"), 256)
        c.run_until_idle()
        triggers = [e.detail["trigger"] for e in activations(recorded)]
        assert triggers[0] == "submit"

    def test_backlog_accumulates_while_nic_busy(self):
        """The paper's core mechanism: submissions during a transfer
        queue up and are optimized at the idle transition."""
        c, recorded = traced_two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        engine = c.engine("n0")
        # First send occupies the NIC...
        api.send(flow, 4 * KiB)
        assert engine.backlog == 0
        # ...the next ten arrive while it is busy and accumulate.
        for _ in range(10):
            api.send(flow, 128)
        assert engine.backlog == 20  # 10 messages x (header + payload)
        c.run_until_idle()
        assert engine.backlog == 0
        idle_activations = [
            e for e in activations(recorded) if e.detail["trigger"] == "idle"
        ]
        assert idle_activations, "idle transition must trigger the optimizer"
        # The accumulated backlog went out aggregated, not one-by-one.
        assert engine.stats.aggregated_packets >= 1

    def test_activation_counters(self):
        c = two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        for _ in range(5):
            api.send(flow, 64)
        c.run_until_idle()
        stats = c.engine("n0").stats
        assert stats.activations.get("submit", 0) >= 1
        assert stats.activations.get("idle", 0) >= 1


class TestDispatchAccounting:
    def test_stats_track_packets_and_bytes(self):
        c = two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        for _ in range(4):
            api.send(flow, 100, header_size=0)
        c.run_until_idle()
        stats = c.engine("n0").stats
        assert stats.messages_submitted == 4
        assert stats.entries_enqueued == 4
        assert stats.payload_bytes == 400
        assert stats.data_packets >= 1
        assert stats.data_segments == 4

    def test_all_messages_complete(self):
        c = two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        messages = [api.send(flow, 64 * (i + 1)) for i in range(20)]
        c.run_until_idle()
        assert all(m.completion.done for m in messages)
        assert c.reassemblers["n1"].messages_completed == 20

    def test_bidirectional_traffic(self):
        c = two_node_cluster()
        a, b = c.api("n0"), c.api("n1")
        fa = a.open_flow("n1")
        fb = b.open_flow("n0")
        ma = [a.send(fa, 128) for _ in range(5)]
        mb = [b.send(fb, 128) for _ in range(5)]
        c.run_until_idle()
        assert all(m.completion.done for m in ma + mb)


class TestRendezvousProtocol:
    def test_large_message_uses_rendezvous(self):
        c = two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        big = api.send(flow, 128 * KiB)
        c.run_until_idle()
        assert big.completion.done
        stats = c.engine("n0").stats
        assert stats.rdv_parked == 1
        assert stats.rdv_ready == 1
        assert stats.packets_by_kind.get("rdv_req") == 1
        assert stats.packets_by_kind.get("rdv_data", 0) >= 1
        assert c.engine("n1").stats.acks_sent == 1
        assert c.engine("n0").rendezvous_in_flight == 0

    def test_small_traffic_flows_during_rendezvous(self):
        """No head-of-line blocking: eager packets overtake the handshake."""
        c = two_node_cluster()
        api = c.api("n0")
        bulk_flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        small_flow = api.open_flow("n1")
        big = api.send(bulk_flow, 1024 * KiB)
        smalls = [api.send(small_flow, 64) for _ in range(5)]
        c.run_until_idle()
        assert big.completion.done
        assert max(m.completion.value for m in smalls) < big.completion.value

    def test_rendezvous_latency_includes_handshake(self):
        c = two_node_cluster()
        api = c.api("n0")
        flow = api.open_flow("n1")
        big = api.send(flow, 64 * KiB, header_size=0)
        c.run_until_idle()
        # Compare against a pure one-way estimate: must be strictly larger
        # (REQ + ACK round trip + ack delay).
        driver = c.engine("n0").drivers[0]
        from repro.network.model import TransferMode

        one_way = driver.nic.link.one_way_time(64 * KiB, TransferMode.DMA)
        assert big.completion.value > one_way


class TestNagleHold:
    def test_hold_delays_single_small_packet(self):
        config = EngineConfig(nagle_delay=10 * us, nagle_min_bytes=1 * KiB)
        c = two_node_cluster(
            strategy=lambda: NagleStrategy(),
            config=config,
        )
        api = c.api("n0")
        flow = api.open_flow("n1")
        m = api.send(flow, 64, header_size=0)
        c.run_until_idle()
        assert m.completion.done
        # Delivery happened only after the hold expired.
        assert m.completion.value >= 10 * us
        assert c.engine("n0").stats.holds >= 1

    def test_hold_released_by_enough_bytes(self):
        config = EngineConfig(nagle_delay=1000 * us, nagle_min_bytes=512)
        c = two_node_cluster(strategy=lambda: NagleStrategy(), config=config)
        api = c.api("n0")
        flow = api.open_flow("n1")
        for _ in range(20):
            api.send(flow, 64, header_size=0)  # 1280 B total > min_bytes
        c.run_until_idle()
        report = c.report()
        assert report.latency.maximum < 1000 * us  # nobody waited out the delay


class TestMultirail:
    def test_two_rails_used(self):
        c = two_node_cluster(networks=[("mx", 2)])
        api = c.api("n0")
        flows = [api.open_flow("n1") for _ in range(4)]
        for f in flows:
            for _ in range(10):
                api.send(f, 2 * KiB)
        c.run_until_idle()
        nics = c.fabric.node("n0").nics
        assert len(nics) == 2
        assert all(nic.stats.requests > 0 for nic in nics)

    def test_heterogeneous_rails(self):
        c = two_node_cluster(networks=[("mx", 1), ("elan", 1)])
        api = c.api("n0")
        flow = api.open_flow("n1")
        msgs = [api.send(flow, 4 * KiB) for _ in range(20)]
        c.run_until_idle()
        assert all(m.completion.done for m in msgs)

    def test_rdv_data_striped_across_rails(self):
        config = EngineConfig(stripe_chunk=32 * KiB)
        c = two_node_cluster(networks=[("mx", 2)], config=config)
        api = c.api("n0")
        flow = api.open_flow("n1")
        big = api.send(flow, 256 * KiB, header_size=0)
        c.run_until_idle()
        assert big.completion.done
        nics = c.fabric.node("n0").nics
        rdv_counts = [nic.stats.kind_counts.get("rdv_data", 0) for nic in nics]
        assert sum(rdv_counts) == 256 // 32
        assert all(count > 0 for count in rdv_counts), "both rails must carry chunks"

    def test_static_binding_restricts_queues(self):
        config = EngineConfig(rail_binding="static", stripe_chunk=None)
        c = two_node_cluster(networks=[("mx", 2)], config=config)
        api = c.api("n0")
        flow = api.open_flow("n1")
        msgs = [api.send(flow, 1 * KiB) for _ in range(10)]
        c.run_until_idle()
        assert all(m.completion.done for m in msgs)


class TestValidationAndErrors:
    def test_engine_requires_drivers(self):
        from repro.core.engine import OptimizingEngine
        from repro.network.fabric import Fabric
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        node = fabric.add_node("n0")
        with pytest.raises(ConfigurationError):
            OptimizingEngine(sim, node, [])

    def test_foreign_driver_rejected(self):
        from repro.core.engine import OptimizingEngine
        from repro.drivers.registry import make_driver
        from repro.network.fabric import Fabric
        from repro.network.technologies import myrinet_mx
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        net = fabric.add_network("mx0", myrinet_mx())
        a, b = fabric.add_node("a"), fabric.add_node("b")
        nic_b = net.attach(b)
        with pytest.raises(ConfigurationError):
            OptimizingEngine(sim, a, [make_driver(nic_b)])

    def test_plan_validation_enabled_by_default(self):
        c = two_node_cluster()
        assert c.engine("n0").config.validate_plans
