"""Tests for the seeded fault-injection plane."""

import pytest

from repro.network.fabric import Fabric
from repro.network.faults import FaultPlane, FaultSpec, FaultVerdict, RailOutage
from repro.network.nic import NIC
from repro.network.technologies import myrinet_mx
from repro.sim import Simulator
from repro.util.errors import FaultInjectionError, SimulationError


def make_nic(sim, name="nic0"):
    return NIC(sim, name, "n0", myrinet_mx(), lambda p, o: None)


def two_node_fabric(sim):
    fabric = Fabric(sim)
    network = fabric.add_network("mx0", myrinet_mx())
    for name in ("n0", "n1"):
        network.attach(fabric.add_node(name))
    return fabric


class TestFaultSpec:
    def test_defaults_are_null(self):
        assert FaultSpec().is_null

    def test_any_knob_breaks_null(self):
        assert not FaultSpec(drop=0.1).is_null
        assert not FaultSpec(jitter=1e-6).is_null

    @pytest.mark.parametrize("field", ["drop", "corrupt", "duplicate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probability_range_enforced(self, field, bad):
        with pytest.raises(FaultInjectionError):
            FaultSpec(**{field: bad})

    def test_negative_jitter_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(jitter=-1e-6)


class TestRailOutage:
    def test_needs_exactly_one_target(self):
        with pytest.raises(FaultInjectionError):
            RailOutage(at=1.0)
        with pytest.raises(FaultInjectionError):
            RailOutage(at=1.0, nic="a", network="b")

    def test_recover_must_follow_outage(self):
        with pytest.raises(FaultInjectionError):
            RailOutage(at=2.0, nic="a", recover=1.0)
        with pytest.raises(FaultInjectionError):
            RailOutage(at=2.0, nic="a", recover=2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            RailOutage(at=-1.0, nic="a")


class TestSpecResolution:
    def test_per_nic_beats_per_network_beats_default(self):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        nic = fabric.node("n0").nics[0]
        plane = FaultPlane(
            FaultSpec(drop=0.1),
            per_network={"mx0": FaultSpec(drop=0.2)},
            per_nic={nic.name: FaultSpec(drop=0.3)},
        )
        assert plane.spec_for(nic).drop == 0.3
        other = fabric.node("n1").nics[0]
        assert plane.spec_for(other).drop == 0.2

    def test_default_applies_without_overrides(self):
        sim = Simulator()
        nic = make_nic(sim)
        plane = FaultPlane(FaultSpec(drop=0.5))
        assert plane.spec_for(nic).drop == 0.5


class TestJudge:
    def test_null_spec_never_perturbs(self):
        sim = Simulator()
        nic = make_nic(sim)
        plane = FaultPlane()
        for _ in range(100):
            verdict = plane.judge(nic)
            assert verdict == FaultVerdict()
        assert plane.stats.judged == 100
        assert plane.stats.drops == 0

    def test_certain_drop(self):
        sim = Simulator()
        nic = make_nic(sim)
        plane = FaultPlane(FaultSpec(drop=1.0))
        verdict = plane.judge(nic)
        assert verdict.drop and not verdict.delivers
        assert plane.stats.drops == 1

    def test_same_seed_same_decisions(self):
        def decisions(seed):
            sim = Simulator()
            nic = make_nic(sim)
            plane = FaultPlane(
                FaultSpec(drop=0.3, corrupt=0.1, duplicate=0.2, jitter=1e-6), seed=seed
            )
            return [plane.judge(nic) for _ in range(200)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_streams_are_per_nic(self):
        sim = Simulator()
        a, b = make_nic(sim, "a"), make_nic(sim, "b")
        plane = FaultPlane(FaultSpec(drop=0.5), seed=3)
        seq_a = [plane.judge(a).drop for _ in range(64)]
        seq_b = [plane.judge(b).drop for _ in range(64)]
        assert seq_a != seq_b  # independent streams (astronomically unlikely equal)

    def test_jitter_delays_delivery(self):
        sim = Simulator()
        nic = make_nic(sim)
        plane = FaultPlane(FaultSpec(jitter=1e-6))
        delays = [plane.judge(nic).delay for _ in range(50)]
        assert all(d > 0 for d in delays)
        assert len(set(delays)) > 1


class TestFromSpec:
    def test_round_trip(self):
        plane = FaultPlane.from_spec(
            {
                "drop": 0.05,
                "duplicate": 0.01,
                "per_network": {"mx0": {"drop": 0.2}},
                "per_nic": {"n0.mx00": {"jitter": 1e-6}},
                "outages": [{"nic": "n0.mx00", "at": 0.001, "recover": 0.002}],
                "seed": 42,
            }
        )
        assert plane.default.drop == 0.05
        assert plane.per_network["mx0"].drop == 0.2
        assert plane.per_nic["n0.mx00"].jitter == 1e-6
        assert plane.outages[0].recover == 0.002
        assert plane.seed == 42

    def test_seed_defaults_to_session_seed(self):
        plane = FaultPlane.from_spec({"drop": 0.1}, default_seed=9)
        assert plane.seed == 9

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FaultInjectionError, match="dorp"):
            FaultPlane.from_spec({"dorp": 0.1})

    def test_unknown_subspec_key_rejected(self):
        with pytest.raises(FaultInjectionError, match="latency"):
            FaultPlane.from_spec({"per_nic": {"x": {"latency": 1}}})

    def test_unknown_outage_key_rejected(self):
        with pytest.raises(FaultInjectionError, match="until"):
            FaultPlane.from_spec({"outages": [{"nic": "x", "at": 1, "until": 2}]})

    def test_outage_missing_at_rejected(self):
        with pytest.raises(FaultInjectionError, match="at"):
            FaultPlane.from_spec({"outages": [{"nic": "x"}]})


class TestOutageInstall:
    def test_fail_and_recover_scheduled(self):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        nic = fabric.node("n0").nics[0]
        plane = FaultPlane(
            outages=[RailOutage(at=1.0, nic=nic.name, recover=2.0)]
        )
        plane.install(fabric, sim)
        assert not nic.failed
        sim.run(until=1.5)
        assert nic.failed and not nic.idle
        sim.run()
        assert not nic.failed and nic.idle
        assert nic.stats.failures == 1

    def test_network_outage_hits_every_member_nic(self):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        plane = FaultPlane(outages=[RailOutage(at=1.0, network="mx0")])
        plane.install(fabric, sim)
        sim.run()
        assert all(nic.failed for node in fabric.nodes for nic in node.nics)

    def test_unknown_nic_rejected(self):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        plane = FaultPlane(outages=[RailOutage(at=1.0, nic="ghost")])
        with pytest.raises(FaultInjectionError, match="ghost"):
            plane.install(fabric, sim)

    def test_unknown_network_rejected(self):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        plane = FaultPlane(outages=[RailOutage(at=1.0, network="elan9")])
        with pytest.raises(FaultInjectionError, match="elan9"):
            plane.install(fabric, sim)


class TestFailedNic:
    def test_submit_while_failed_rejected(self):
        from repro.network.wire import PacketKind, WirePacket, WireSegment

        sim = Simulator()
        nic = make_nic(sim)
        nic.fail()
        packet = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment("p", 0, 10),), packet_id=0
        )
        with pytest.raises(SimulationError, match="failed"):
            nic.submit(packet, occupancy=1e-6, one_way=2e-6)

    def test_in_flight_transfer_completes_without_idle(self):
        from repro.network.wire import PacketKind, WirePacket, WireSegment

        sim = Simulator()
        delivered = []
        nic = NIC(sim, "nic0", "n0", myrinet_mx(), lambda p, o: delivered.append(p))
        idles = []
        nic.on_idle(lambda n: idles.append(sim.now))
        packet = WirePacket(
            PacketKind.EAGER, "n0", "n1", 0, (WireSegment("p", 0, 10),), packet_id=0
        )
        nic.submit(packet, occupancy=2e-6, one_way=3e-6)
        sim.schedule(1e-6, nic.fail)  # outage mid-transfer
        sim.run()
        assert delivered  # the packet had already left for the switch
        assert idles == []  # but the rail never reported idle

    def test_fail_recover_callbacks_and_idempotence(self):
        sim = Simulator()
        nic = make_nic(sim)
        events = []
        nic.on_fail(lambda n: events.append("fail"))
        nic.on_recover(lambda n: events.append("recover"))
        nic.fail()
        nic.fail()
        nic.recover()
        nic.recover()
        assert events == ["fail", "recover"]
        assert nic.stats.failures == 1
