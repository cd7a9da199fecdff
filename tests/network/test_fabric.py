"""Tests for nodes, networks, routing, and reachability."""

import pytest

from repro.network.fabric import Fabric
from repro.network.technologies import myrinet_mx, quadrics_elan
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator
from repro.util.errors import ConfigurationError, ProtocolError


@pytest.fixture
def fabric():
    return Fabric(Simulator())


class TestConstruction:
    def test_add_node(self, fabric):
        node = fabric.add_node("n0")
        assert fabric.node("n0") is node
        assert node.nics == []

    def test_duplicate_node_rejected(self, fabric):
        fabric.add_node("n0")
        with pytest.raises(ConfigurationError):
            fabric.add_node("n0")

    def test_unknown_node_rejected(self, fabric):
        with pytest.raises(ConfigurationError):
            fabric.node("missing")

    def test_add_network(self, fabric):
        net = fabric.add_network("mx0", myrinet_mx())
        assert fabric.network("mx0") is net

    def test_duplicate_network_rejected(self, fabric):
        fabric.add_network("mx0", myrinet_mx())
        with pytest.raises(ConfigurationError):
            fabric.add_network("mx0", quadrics_elan())

    def test_attach_creates_nic(self, fabric):
        net = fabric.add_network("mx0", myrinet_mx())
        node = fabric.add_node("n0")
        nic = net.attach(node)
        assert nic in node.nics
        assert nic.network is net
        assert nic.link.name == "mx"
        assert "n0" in net.members

    def test_multiple_nics_unique_names(self, fabric):
        net = fabric.add_network("mx0", myrinet_mx())
        node = fabric.add_node("n0")
        a = net.attach(node)
        b = net.attach(node)
        assert a.name != b.name
        assert node.nic(a.name) is a

    def test_node_nic_lookup_missing(self, fabric):
        node = fabric.add_node("n0")
        with pytest.raises(ConfigurationError):
            node.nic("nope")

    def test_nodes_and_networks_properties(self, fabric):
        fabric.add_node("a")
        fabric.add_node("b")
        fabric.add_network("mx0", myrinet_mx())
        assert [n.name for n in fabric.nodes] == ["a", "b"]
        assert [n.name for n in fabric.networks] == ["mx0"]


class TestRouting:
    def test_packet_reaches_destination_receiver(self, fabric):
        sim = fabric.sim
        net = fabric.add_network("mx0", myrinet_mx())
        a, b = fabric.add_node("a"), fabric.add_node("b")
        nic = net.attach(a)
        net.attach(b)
        received = []
        fabric.node("b").receiver.register_default_sink(received.append)
        pkt = WirePacket(PacketKind.EAGER, "a", "b", 0, (WireSegment("x", 0, 64),), packet_id=0)
        nic.submit(pkt, occupancy=1e-6, one_way=2e-6)
        sim.run()
        assert received == [pkt]

    def test_unreachable_destination_raises(self, fabric):
        sim = fabric.sim
        net = fabric.add_network("mx0", myrinet_mx())
        a = fabric.add_node("a")
        fabric.add_node("c")  # not attached to mx0
        nic = net.attach(a)
        pkt = WirePacket(PacketKind.EAGER, "a", "c", 0, (WireSegment("x", 0, 64),), packet_id=0)
        nic.submit(pkt, occupancy=1e-6, one_way=2e-6)
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_reaches_reflects_membership(self, fabric):
        net = fabric.add_network("mx0", myrinet_mx())
        elan = fabric.add_network("elan0", quadrics_elan())
        a, b, c = fabric.add_node("a"), fabric.add_node("b"), fabric.add_node("c")
        mx_nic = net.attach(a)
        net.attach(b)
        elan_nic = elan.attach(a)
        elan.attach(c)
        assert mx_nic.reaches("b") and not mx_nic.reaches("c")
        assert elan_nic.reaches("c") and not elan_nic.reaches("b")
