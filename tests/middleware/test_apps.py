"""Tests for the synthetic middleware workloads."""

import pytest

from repro.middleware import (
    ControlPlaneApp,
    DsmApp,
    GlobalArraysApp,
    PingPongApp,
    RpcApp,
    StreamApp,
    uniform_small_flows,
)
from repro.madeleine.api import MadAPI
from repro.madeleine.rx import MessageReassembler
from repro.network.virtual import TrafficClass
from repro.runtime import Cluster, run_session
from repro.util.errors import ConfigurationError
from repro.util.rng import SeedSequenceRegistry


@pytest.fixture
def cluster():
    return Cluster(n_nodes=2, seed=11)


class TestPingPong:
    def test_collects_rtts(self, cluster):
        app = PingPongApp(count=10, size=8)
        run_session(cluster, [app.install])
        assert app.done.done
        assert len(app.rtts) == 10
        assert all(r > 0 for r in app.rtts)

    def test_rtt_grows_with_size(self):
        def rtt_for(size):
            c = Cluster(n_nodes=2, seed=1)
            app = PingPongApp(count=10, size=size)
            run_session(c, [app.install])
            return sum(app.rtts) / len(app.rtts)

        assert rtt_for(64 * 1024) > rtt_for(64)

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            PingPongApp(count=0)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            PingPongApp(src="n0", dst="n0")


class TestStream:
    def test_all_messages_sent_and_delivered(self, cluster):
        app = StreamApp(count=25, size=128, interval=1e-6)
        run_session(cluster, [app.install])
        assert len(app.messages) == 25
        assert all(m.completion.done for m in app.messages)

    def test_lognormal_sizes(self, cluster):
        app = StreamApp(count=50, size=256, size_sigma=1.0)
        run_session(cluster, [app.install])
        sizes = {m.total_size for m in app.messages}
        assert len(sizes) > 5  # actually varied

    def test_periodic_arrivals(self, cluster):
        app = StreamApp(count=5, size=64, interval=10e-6, jitter=False)
        run_session(cluster, [app.install])
        submits = [m.submit_time for m in app.messages]
        gaps = [b - a for a, b in zip(submits, submits[1:])]
        assert all(g == pytest.approx(10e-6) for g in gaps)

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            StreamApp(interval=-1.0)


class TestRpc:
    def test_call_latencies_recorded(self, cluster):
        app = RpcApp(calls=12, concurrency=3)
        run_session(cluster, [app.install])
        assert app.done.done
        assert len(app.call_latencies) == 12

    def test_service_time_adds_latency(self):
        def mean_latency(service_time):
            c = Cluster(n_nodes=2, seed=5)
            app = RpcApp(calls=10, service_time=service_time)
            run_session(c, [app.install])
            return sum(app.call_latencies) / len(app.call_latencies)

        assert mean_latency(100e-6) > mean_latency(0.0) + 50e-6

    def test_concurrency_validation(self):
        with pytest.raises(ConfigurationError):
            RpcApp(calls=2, concurrency=5)


class TestDsm:
    def test_fault_latencies(self, cluster):
        app = DsmApp(faults=8)
        run_session(cluster, [app.install])
        assert len(app.fault_latencies) == 8

    def test_classes(self, cluster):
        app = DsmApp(faults=4)
        report = run_session(cluster, [app.install])
        assert TrafficClass.CONTROL in report.latency_by_class
        assert TrafficClass.PUTGET in report.latency_by_class


class TestGlobalArrays:
    def test_op_mix(self, cluster):
        app = GlobalArraysApp(operations=40, get_fraction=0.5)
        run_session(cluster, [app.install])
        kinds = {op for op, _ in app.op_log}
        assert kinds == {"put", "get"}
        n_gets = sum(1 for op, _ in app.op_log if op == "get")
        assert len(app.get_latencies) == n_gets

    def test_pure_puts(self, cluster):
        app = GlobalArraysApp(operations=10, get_fraction=0.0)
        run_session(cluster, [app.install])
        assert app.get_latencies == []
        assert app.done.done

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            GlobalArraysApp(get_fraction=1.5)


class TestControlPlane:
    def test_latencies_recorded(self, cluster):
        app = ControlPlaneApp(count=15)
        run_session(cluster, [app.install])
        assert len(app.latencies) == 15
        assert all(l > 0 for l in app.latencies)


class TestUniformSmallFlows:
    def test_builds_n_flows(self, cluster):
        apps = uniform_small_flows(5, count=10, size=64)
        report = run_session(cluster, [a.install for a in apps])
        assert report.messages == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_small_flows(0)


class TestDeterminism:
    def test_same_seed_same_report(self):
        def run(seed):
            c = Cluster(n_nodes=2, seed=seed)
            apps = uniform_small_flows(4, count=20, interval=2e-6)
            return run_session(c, [a.install for a in apps])

        r1, r2 = run(42), run(42)
        assert r1.latency.mean == r2.latency.mean
        assert r1.network_transactions == r2.network_transactions

    def test_different_seed_differs(self):
        def run(seed):
            c = Cluster(n_nodes=2, seed=seed)
            apps = uniform_small_flows(4, count=20, interval=2e-6)
            return run_session(c, [a.install for a in apps])

        assert run(1).latency.mean != run(2).latency.mean


class _OnePeer:
    """What a live peer is to its apps, minus the sockets: every node's
    API to open flows on, one node's engine."""

    def __init__(self, cluster, local):
        self.sim = cluster.sim
        self.engines = {local: cluster.engines[local]}
        self.apis = {
            name: api
            if name == local
            else MadAPI(name, None, MessageReassembler(cluster.sim, name))
            for name, api in cluster.apis.items()
        }
        self.api = self.apis.__getitem__
        self.stream = cluster.stream


class TestRunsWhereItsNodeLives:
    @staticmethod
    def _install(cluster_like):
        apps = [
            PingPongApp("n0", "n1", count=3, name="pp"),
            StreamApp("n0", "n1", count=3, interval=1e-6, name="s"),
            PingPongApp("n1", "n0", count=3),  # named by the run
        ]
        for app in apps:
            app.install(cluster_like)
        flow_ids = {
            flow.name: flow.flow_id
            for api in cluster_like.apis.values()
            for flow in api.flows
        }
        return apps, flow_ids

    def test_peer_builds_every_flow_and_runs_only_its_half(self):
        _, on_full_cluster = self._install(Cluster(n_nodes=2, seed=5))
        cluster = Cluster(n_nodes=2, seed=5)
        peer = _OnePeer(cluster, "n1")
        (pingpong, stream, reverse), flow_ids = self._install(peer)
        assert flow_ids == on_full_cluster
        assert flow_ids == {
            "pp.ping": 0, "pp.pong": 1, "s.stream": 2,
            "PingPongApp0.ping": 3, "PingPongApp0.pong": 4,
        }
        assert [p.name for p in pingpong._processes] == ["pp.server"]
        assert stream._processes == []  # its one process is n0's: not an error
        assert [p.name for p in reverse._processes] == ["PingPongApp0.client"]
        cluster.run_until_idle()
        # n0's half never ran here: no message was numbered on a flow
        # out of n0, and nothing was drawn from the stream's arrivals.
        api0 = peer.api("n0")
        assert [flow.messages_sent for flow in api0.flows] == [0, 0, 0]
        fresh = SeedSequenceRegistry(5).stream("s.arrivals")
        assert (
            peer.stream("s.arrivals").generator.bit_generator.state
            == fresh.generator.bit_generator.state
        )
        # n1's client did run, and its ping left for the real n0.
        assert peer.api("n1").flows[1].messages_sent == 1
        with pytest.raises(ConfigurationError, match="no engine"):
            api0.send(api0.flows[0], 8)

    def test_app_that_spawns_nothing_is_still_an_error(self, cluster):
        class Idle(PingPongApp):
            def _start(self, cluster):
                pass

        with pytest.raises(ConfigurationError, match="started no processes"):
            Idle().install(cluster)
