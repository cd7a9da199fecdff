"""Tests for the driver layer: decisions, costs, validation, registry."""

import pytest

from repro.drivers import (
    DRIVER_TYPES,
    Driver,
    DriverCapabilities,
    ElanDriver,
    MxDriver,
    TcpDriver,
    make_driver,
)
from repro.drivers.base import AggregationChoice
from repro.network.fabric import Fabric
from repro.network.model import TransferMode
from repro.network.nic import NIC
from repro.network.technologies import TECHNOLOGIES, myrinet_mx
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator
from repro.util.errors import CapabilityError, ConfigurationError
from repro.util.units import KiB


@pytest.fixture
def sim():
    return Simulator()


def make_mx_driver(sim, deliveries=None):
    deliveries = deliveries if deliveries is not None else []
    nic = NIC(sim, "mx0", "n0", myrinet_mx(), lambda p, o: deliveries.append(p))
    return MxDriver(nic), deliveries


class TestConstruction:
    def test_technology_mismatch_rejected(self, sim):
        nic = NIC(sim, "x", "n0", myrinet_mx(), lambda p, o: None)
        with pytest.raises(CapabilityError):
            ElanDriver(nic)

    def test_registry_covers_all_technologies(self):
        assert set(DRIVER_TYPES) == set(TECHNOLOGIES)

    def test_make_driver_dispatches(self, sim):
        fabric = Fabric(sim)
        for i, tech in enumerate(TECHNOLOGIES):
            net = fabric.add_network(f"net{i}", TECHNOLOGIES[tech]())
            node = fabric.add_node(f"n{i}")
            nic = net.attach(node)
            driver = make_driver(nic)
            assert isinstance(driver, DRIVER_TYPES[tech])

    def test_make_driver_unknown_tech(self, sim):
        from repro.network.model import LinkModel

        odd = LinkModel(
            name="weird",
            pio_latency=1e-6,
            pio_bandwidth=1e8,
            dma_latency=1e-6,
            dma_bandwidth=1e8,
            wire_latency=0,
            copy_bandwidth=1e9,
            gather_entry_cost=0,
            rx_overhead=0,
        )
        nic = NIC(sim, "x", "n0", odd, lambda p, o: None)
        with pytest.raises(ConfigurationError):
            make_driver(nic)


class TestModeChoice:
    def test_pio_below_threshold(self, sim):
        driver, _ = make_mx_driver(sim)
        assert driver.choose_mode(100) is TransferMode.PIO

    def test_dma_above_threshold(self, sim):
        driver, _ = make_mx_driver(sim)
        assert driver.choose_mode(driver.caps.pio_threshold + 1) is TransferMode.DMA

    def test_dma_only_driver(self, sim):
        from repro.network.technologies import gige_tcp

        nic = NIC(sim, "t", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        assert driver.choose_mode(1) is TransferMode.DMA


class TestRendezvousDecision:
    def test_eager_below_threshold(self, sim):
        driver, _ = make_mx_driver(sim)
        assert not driver.wants_rendezvous(driver.caps.eager_threshold)

    def test_rdv_above_threshold(self, sim):
        driver, _ = make_mx_driver(sim)
        assert driver.wants_rendezvous(driver.caps.eager_threshold + 1)

    def test_no_rdv_driver_never_wants(self, sim):
        from repro.network.technologies import gige_tcp

        nic = NIC(sim, "t", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        assert not driver.wants_rendezvous(10 * 1024 * 1024)


class TestAggregationChoice:
    def test_single_segment_free(self, sim):
        driver, _ = make_mx_driver(sim)
        choice = driver.choose_aggregation([4096])
        assert choice == AggregationChoice(copied_bytes=0, gather_entries=1)

    def test_small_segments_copied(self, sim):
        """Copying a handful of tiny segments beats gather descriptors."""
        driver, _ = make_mx_driver(sim)
        choice = driver.choose_aggregation([16, 16])
        assert choice.gather_entries == 1
        assert choice.copied_bytes == 32

    def test_large_segments_gathered(self, sim):
        driver, _ = make_mx_driver(sim)
        choice = driver.choose_aggregation([8 * KiB, 8 * KiB])
        assert choice.gather_entries == 2
        assert choice.copied_bytes == 0

    def test_gather_limit_forces_copy(self, sim):
        driver, _ = make_mx_driver(sim)
        n = driver.caps.max_gather_entries + 1
        choice = driver.choose_aggregation([8 * KiB] * n)
        assert choice.gather_entries == 1
        assert choice.copied_bytes == n * 8 * KiB

    def test_no_gather_driver_copies(self, sim):
        from repro.network.technologies import gige_tcp

        nic = NIC(sim, "t", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        choice = driver.choose_aggregation([8 * KiB, 8 * KiB])
        assert choice.gather_entries == 1

    def test_zero_segments_rejected(self, sim):
        driver, _ = make_mx_driver(sim)
        with pytest.raises(CapabilityError):
            driver.choose_aggregation([])


class TestSend:
    def packet(self, size=1024, n=1, kind=PacketKind.EAGER):
        segs = tuple(WireSegment(f"p{i}", 0, size // n) for i in range(n))
        return WirePacket(kind, "n0", "n1", 0, segs, packet_id=0)

    def test_send_returns_costs_and_occupies_nic(self, sim):
        driver, deliveries = make_mx_driver(sim)
        busy, arrival = driver.send(self.packet())
        assert 0 < busy < arrival
        assert not driver.idle
        sim.run()
        assert driver.idle
        assert len(deliveries) == 1

    def test_oversized_eager_rejected(self, sim):
        driver, _ = make_mx_driver(sim)
        size = driver.caps.max_aggregate_size + 1
        with pytest.raises(CapabilityError):
            driver.send(self.packet(size=size))

    def test_rdv_data_exempt_from_aggregate_limit(self, sim):
        driver, _ = make_mx_driver(sim)
        size = 4 * driver.caps.max_aggregate_size
        busy, _ = driver.send(self.packet(size=size, kind=PacketKind.RDV_DATA))
        assert busy > 0

    def test_pio_unsupported_rejected(self, sim):
        from repro.network.technologies import gige_tcp

        nic = NIC(sim, "t", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        pkt = WirePacket(PacketKind.EAGER, "n0", "n1", 0, (WireSegment("p", 0, 8),), packet_id=0)
        with pytest.raises(CapabilityError):
            driver.send(pkt, mode=TransferMode.PIO)

    def test_rdv_control_on_no_rdv_driver_rejected(self, sim):
        from repro.network.technologies import gige_tcp

        nic = NIC(sim, "t", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        pkt = WirePacket(PacketKind.RDV_REQ, "n0", "n1", 0, packet_id=0)
        with pytest.raises(CapabilityError):
            driver.send(pkt)

    def test_explicit_gather_over_limit_rejected(self, sim):
        driver, _ = make_mx_driver(sim)
        agg = AggregationChoice(copied_bytes=0, gather_entries=999)
        with pytest.raises(CapabilityError):
            driver.send(self.packet(n=2), aggregation=agg)

    def test_aggregated_send_costs_more_than_contiguous(self, sim):
        """Framing + assembly overhead is visible but small."""
        driver, _ = make_mx_driver(sim)
        busy_multi, _ = driver.send(self.packet(size=4096, n=8))
        sim.run()
        busy_single, _ = driver.send(self.packet(size=4096, n=1))
        assert busy_multi > busy_single
        assert busy_multi < 2 * busy_single


class TestPerTechnologyProfiles:
    def test_elan_thresholds_above_mx(self, sim):
        from repro.network.technologies import quadrics_elan

        elan_nic = NIC(sim, "e", "n0", quadrics_elan(), lambda p, o: None)
        elan = ElanDriver(elan_nic)
        mx, _ = make_mx_driver(sim)
        assert elan.caps.eager_threshold > mx.caps.eager_threshold
        assert elan.caps.max_gather_entries > mx.caps.max_gather_entries
