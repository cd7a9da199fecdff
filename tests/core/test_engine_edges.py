"""Edge-case tests for the engine: hold timers, epoch retry, weighted
service end-to-end, and misc error paths."""

import pytest

from repro.core.config import EngineConfig
from repro.core.strategies import NagleStrategy
from repro.core.channels import WeightedChannels
from repro.network.virtual import TrafficClass
from repro.runtime import Cluster, run_session
from repro.sim import Process
from repro.util.errors import ProtocolError
from repro.util.units import KiB, us


class TestHoldTimer:
    def test_earlier_hold_not_replaced_by_later(self):
        """Arming a later wake when an earlier one is pending is a no-op."""
        config = EngineConfig(nagle_delay=20 * us, nagle_min_bytes=10 * KiB)
        cluster = Cluster(strategy=lambda: NagleStrategy(), config=config, seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        first = api.send(flow, 64, header_size=0)

        def second_sender():
            yield 5 * us
            api.send(flow, 64, header_size=0)

        Process(cluster.sim, second_sender())
        cluster.run_until_idle()
        # The first message's deadline governs: delivery right after
        # submit_time(first) + 20us, not 5us later.
        assert first.completion.value == pytest.approx(20 * us, rel=0.5)

    def test_hold_timer_counts_in_stats(self):
        config = EngineConfig(nagle_delay=15 * us, nagle_min_bytes=10 * KiB)
        cluster = Cluster(strategy=lambda: NagleStrategy(), config=config, seed=1)
        api = cluster.api("n0")
        api.send(api.open_flow("n1"), 64)
        cluster.run_until_idle()
        stats = cluster.engine("n0").stats
        assert stats.holds >= 1
        assert stats.activations.get("nagle", 0) >= 1


class TestEpochRetry:
    def test_rdv_only_backlog_still_dispatches(self):
        """A queue containing only an oversized entry: planning parks it
        (returns None) and the epoch-retry path must immediately re-plan
        and send the REQ — no stall until the next external event."""
        cluster = Cluster(seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        big = api.send(flow, 512 * KiB, header_size=0)
        # If the retry path were missing, nothing would ever be sent.
        cluster.run_until_idle()
        assert big.completion.done


class TestWeightedServiceEndToEnd:
    def test_control_unstarved_under_bulk(self):
        from repro.middleware import ControlPlaneApp, StreamApp

        def control_p99(policy):
            cluster = Cluster(policy=policy, seed=3)
            apps = [
                StreamApp(
                    size=24 * KiB,
                    count=40,
                    interval=2 * us,
                    traffic_class=TrafficClass.BULK,
                    name=f"b{i}",
                )
                for i in range(3)
            ] + [ControlPlaneApp(count=100, interval=4 * us, name="c")]
            report = run_session(cluster, [a.install for a in apps])
            return report.latency_by_class[TrafficClass.CONTROL].p99

        from repro.core.channels import PooledChannels

        weighted = control_p99(WeightedChannels)
        shared = control_p99(lambda: PooledChannels(by_class=False))
        assert weighted < shared / 2


class TestProtocolErrors:
    def test_unmatched_rdv_ack_raises(self):
        from repro.network.wire import PacketKind, WirePacket

        cluster = Cluster(seed=1)
        engine = cluster.engine("n0")
        bogus = WirePacket(
            PacketKind.RDV_ACK, "n1", "n0", 0, meta={"token": 424242}, packet_id=0
        )
        with pytest.raises(ProtocolError, match="unmatched"):
            engine._handle_rdv_ack(bogus)

    def test_park_requires_waiting_state(self):
        from repro.madeleine.message import Flow

        from tests.core.helpers import data_entry

        cluster = Cluster(seed=1)
        engine = cluster.engine("n0")
        entry = data_entry(Flow(0, "f", "n0", "n1"), 100_000)
        entry.consume(100_000)  # SENT
        with pytest.raises(ProtocolError):
            engine.park_for_rendezvous(entry, 0)


class TestStatsIntegrity:
    def test_packet_kind_accounting_consistent(self):
        cluster = Cluster(seed=5)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(10):
            api.send(flow, 1 * KiB)
        api.send(flow, 256 * KiB)
        cluster.run_until_idle()
        stats = cluster.engine("n0").stats
        assert sum(stats.packets_by_kind.values()) == stats.dispatches
        nic_requests = sum(
            nic.stats.requests for nic in cluster.fabric.node("n0").nics
        )
        assert nic_requests == stats.dispatches

    def test_entries_enqueued_counts_fragments(self):
        cluster = Cluster(seed=5)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        session = api.begin(flow)
        session.pack(8).pack(8).pack(8)
        session.flush()
        assert cluster.engine("n0").stats.entries_enqueued == 3
