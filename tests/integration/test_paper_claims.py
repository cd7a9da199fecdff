"""The paper's claims, one executable test per quoted sentence.

These tests are the reproduction contract in miniature: if one fails,
the corresponding row of EXPERIMENTS.md no longer holds.
"""

import pytest

from repro.core.config import EngineConfig
from repro.middleware import ControlPlaneApp, StreamApp, uniform_small_flows
from repro.network.virtual import TrafficClass
from repro.obs.recorder import ListSink
from repro.runtime import Cluster, run_session
from repro.util.units import KiB, us


class TestAbstractClaims:
    def test_optimizations_parameterized_by_driver_capabilities(self):
        """'Optimizations are parameterized by the capabilities of the
        underlying network drivers.'"""
        import dataclasses

        from repro.drivers.mx import MX_CAPABILITIES

        def agg_ratio(caps):
            cluster = Cluster(seed=1, driver_caps={"mx": caps} if caps else None)
            apps = uniform_small_flows(8, size=2 * KiB, count=40, interval=1 * us)
            return run_session(cluster, [a.install for a in apps]).aggregation_ratio

        # Same strategy, different capability envelope, different outcome.
        narrow = dataclasses.replace(MX_CAPABILITIES, max_aggregate_size=4 * KiB)
        assert agg_ratio(narrow) < agg_ratio(None)

    def test_triggered_when_network_cards_become_idle(self):
        """'…are triggered by the network cards when they become idle.'"""
        cluster = Cluster(seed=1)
        recorded = ListSink()
        cluster.sim.tracer.subscribe(recorded)
        apps = uniform_small_flows(4, size=512, count=30, interval=1 * us)
        run_session(cluster, [a.install for a in apps])
        activations = [e for e in recorded.events if e.kind == "optimizer.activate"]
        idle_triggered = sum(1 for e in activations if e.detail["trigger"] == "idle")
        assert idle_triggered > len(activations) / 2

    def test_strategy_database_easily_extended(self):
        """'The database of predefined strategies can be easily extended.'"""
        from repro.core.strategies import (
            STRATEGY_TYPES,
            AggregationStrategy,
            register_strategy,
        )

        @register_strategy("claim-test")
        class ClaimStrategy(AggregationStrategy):
            pass

        try:
            cluster = Cluster(strategy="claim-test", seed=1)
            message = cluster.api("n0").send(cluster.api("n0").open_flow("n1"), 128)
            cluster.run_until_idle()
            assert message.completion.done
        finally:
            del STRATEGY_TYPES["claim-test"]


class TestSection2Claims:
    def test_one_to_one_mapping_is_a_mere_fallback(self):
        """'…the one-to-one mapping is now only one mere scheduling
        policy … among many other possible ones' — and the pooled
        policies beat it where it matters."""
        from repro.core.channels import OneToOneChannels, PooledChannels

        def control_p99(policy):
            cluster = Cluster(policy=policy, seed=2)
            apps = [
                StreamApp(size=24 * KiB, count=30, interval=2 * us,
                          traffic_class=TrafficClass.BULK, name=f"b{i}")
                for i in range(3)
            ] + [ControlPlaneApp(count=60, interval=4 * us, name="c")]
            report = run_session(cluster, [a.install for a in apps])
            return report.latency_by_class[TrafficClass.CONTROL].p99

        assert control_p99(lambda: PooledChannels(by_class=True)) < control_p99(
            OneToOneChannels
        )

    def test_load_balancing_on_nics_of_multiple_technologies(self):
        """'…dynamic load balancing on multiple resources, multiple
        NICs, or even NICs from multiple technologies.'"""
        cluster = Cluster(
            networks=[("mx", 1), ("elan", 1)],
            seed=2,
            config=EngineConfig(stripe_chunk=32 * KiB),
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        big = api.send(flow, 1024 * KiB, header_size=0)
        cluster.run_until_idle()
        assert big.completion.done
        per_rail = [nic.stats.payload_bytes for nic in cluster.fabric.node("n0").nics]
        assert all(b > 0 for b in per_rail), "both technologies must carry bulk"


class TestSection3Claims:
    def test_backlog_accumulates_while_nic_busy(self):
        """'While the NIC is busy sending a packet, the scheduler simply
        accumulates a backlog of packets.'"""
        cluster = Cluster(seed=3)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        api.send(flow, 8 * KiB)  # occupies the NIC
        engine = cluster.engine("n0")
        before = engine.backlog
        for _ in range(5):
            api.send(flow, 128)
        assert engine.backlog == before + 10  # header+payload each
        cluster.run_until_idle()

    def test_wrong_decision_example_avoided(self):
        """§3's example of a wrong decision: 'to send a small packet just
        before another small packet becomes available … incurring two
        network transactions where an aggregated one would have been
        better.'  With a Nagle hold, the two packets merge."""
        from repro.core.strategies import NagleStrategy
        from repro.sim import Process

        cluster = Cluster(
            strategy=lambda: NagleStrategy(),
            config=EngineConfig(nagle_delay=5 * us, nagle_min_bytes=1 * KiB),
            seed=3,
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")

        def two_sends():
            api.send(flow, 128, header_size=0)
            yield 2 * us  # the second becomes available shortly after
            api.send(flow, 128, header_size=0)

        Process(cluster.sim, two_sends())
        cluster.run_until_idle()
        stats = cluster.engine("n0").stats
        assert stats.data_packets == 1, "the two small packets must merge"

    def test_structured_message_constraints_respected(self):
        """'These message internal dependencies … are taken into account
        as limiting factors — or constraints — by the scheduler.'"""
        from repro.madeleine.message import PackMode

        cluster = Cluster(seed=3)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        session = api.begin(flow)
        session.pack(16, express=True)
        session.pack(512, mode=PackMode.SAFER)
        session.pack(512)
        message = session.flush()
        cluster.run_until_idle()
        assert message.completion.done
        # The SAFER fragment forced its own packet.
        assert cluster.engine("n0").stats.data_packets >= 2


class TestSection4Claims:
    def test_headline_aggregation_gain(self):
        """'the aggregation of eager segments collected from several
        independent communication flows brings huge performance gains.'"""

        def throughput(engine):
            cluster = Cluster(engine=engine, seed=4)
            apps = uniform_small_flows(8, size=256, count=50, interval=1 * us)
            return run_session(cluster, [a.install for a in apps]).throughput

        assert throughput("optimizing") > 2 * throughput("legacy")

    def test_improvements_in_many_cases_never_regression(self):
        """'already exhibits significant improvements over the previous
        software in many cases' — and no regression in the single-flow
        base case."""
        from repro.middleware import PingPongApp

        def rtt(engine):
            cluster = Cluster(engine=engine, seed=4)
            app = PingPongApp(count=20, size=512)
            run_session(cluster, [app.install])
            return sum(app.rtts) / len(app.rtts)

        assert rtt("optimizing") <= rtt("legacy") * 1.05
