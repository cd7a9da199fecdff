"""End-to-end tests per network technology and exotic topologies."""

import pytest

from repro.drivers.registry import make_driver
from repro.core.engine import OptimizingEngine
from repro.madeleine.api import MadAPI
from repro.madeleine.rx import MessageReassembler
from repro.network.fabric import Fabric
from repro.network.technologies import TECHNOLOGIES
from repro.runtime import Cluster
from repro.sim import Simulator
from repro.util.units import KiB, MiB


class TestEachTechnology:
    @pytest.mark.parametrize("tech", sorted(TECHNOLOGIES))
    def test_small_and_large_messages(self, tech):
        cluster = Cluster(networks=[(tech, 1)], seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        small = [api.send(flow, 256) for _ in range(10)]
        big = api.send(flow, 1 * MiB, header_size=0)
        cluster.run_until_idle()
        assert all(m.completion.done for m in small)
        assert big.completion.done

    def test_tcp_has_no_rendezvous(self):
        """TCP chunks oversized messages instead of negotiating."""
        cluster = Cluster(networks=[("tcp", 1)], seed=1)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        big = api.send(flow, 1 * MiB, header_size=0)
        cluster.run_until_idle()
        assert big.completion.done
        stats = cluster.engine("n0").stats
        assert stats.rdv_parked == 0
        # Chunked into max_aggregate_size pieces.
        assert stats.data_packets >= (1 * MiB) // (64 * KiB)

    def test_mx_uses_rendezvous_earlier_than_elan(self):
        def rdv_count(tech, size):
            cluster = Cluster(networks=[(tech, 1)], seed=1)
            api = cluster.api("n0")
            api.send(api.open_flow("n1"), size, header_size=0)
            cluster.run_until_idle()
            return cluster.engine("n0").stats.rdv_parked

        size = 48 * KiB  # above MX's 32 KiB threshold, below Elan's 64 KiB
        assert rdv_count("mx", size) == 1
        assert rdv_count("elan", size) == 0


class TestPartialConnectivity:
    """A node pair reachable only through one of several networks."""

    def build(self):
        sim = Simulator()
        fabric = Fabric(sim)
        mx = fabric.add_network("mx0", TECHNOLOGIES["mx"]())
        elan = fabric.add_network("elan0", TECHNOLOGIES["elan"]())
        hub = fabric.add_node("hub")
        mx_leaf = fabric.add_node("mxleaf")
        elan_leaf = fabric.add_node("elanleaf")
        mx.attach(hub)
        mx.attach(mx_leaf)
        elan.attach(hub)
        elan.attach(elan_leaf)

        engines = {}
        apis = {}
        for node in fabric.nodes:
            drivers = [make_driver(nic) for nic in node.nics]
            engine = OptimizingEngine(sim, node, drivers)
            reassembler = MessageReassembler(sim, node.name)
            node.receiver.register_default_sink(reassembler.sink)
            engines[node.name] = engine
            apis[node.name] = MadAPI(node.name, engine, reassembler)
        return sim, apis, engines

    def test_routes_respect_reachability(self):
        sim, apis, engines = self.build()
        hub = apis["hub"]
        to_mx = hub.open_flow("mxleaf")
        to_elan = hub.open_flow("elanleaf")
        m1 = hub.send(to_mx, 4 * KiB)
        m2 = hub.send(to_elan, 4 * KiB)
        sim.run_until_idle()
        assert m1.completion.done and m2.completion.done
        # Each leaf is only reachable over its own technology.
        hub_node_engines = engines["hub"]
        mx_nic, elan_nic = (
            hub_node_engines.drivers[0].nic,
            hub_node_engines.drivers[1].nic,
        )
        assert mx_nic.link.name == "mx" and elan_nic.link.name == "elan"
        assert mx_nic.stats.requests > 0
        assert elan_nic.stats.requests > 0

    def test_large_transfers_not_striped_across_disjoint_networks(self):
        sim, apis, engines = self.build()
        hub = apis["hub"]
        flow = hub.open_flow("mxleaf")
        big = hub.send(flow, 512 * KiB, header_size=0)
        sim.run_until_idle()
        assert big.completion.done
        elan_nic = engines["hub"].drivers[1].nic
        assert elan_nic.stats.kind_counts.get("rdv_data", 0) == 0


class TestFlowOrderingProperty:
    def test_single_rail_eager_fifo_per_flow(self):
        """On one NIC, eager messages of a flow complete in submit order."""
        cluster = Cluster(seed=7)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        messages = [api.send(flow, 64 + 32 * i) for i in range(30)]
        cluster.run_until_idle()
        completions = [m.completion.value for m in messages]
        assert completions == sorted(completions)

    def test_fifo_holds_under_cross_flow_mixing(self):
        cluster = Cluster(seed=8)
        api = cluster.api("n0")
        flows = [api.open_flow("n1") for _ in range(4)]
        per_flow = {f.flow_id: [] for f in flows}
        for i in range(40):
            flow = flows[i % 4]
            per_flow[flow.flow_id].append(api.send(flow, 128))
        cluster.run_until_idle()
        for messages in per_flow.values():
            completions = [m.completion.value for m in messages]
            assert completions == sorted(completions)
