"""Tests for the plan cost/score model."""

import dataclasses

import pytest

from repro.core.cost import CostModel
from repro.core.plan import PlanItem, TransferPlan
from repro.madeleine.message import Flow
from repro.network.model import LinkModel
from repro.network.technologies import myrinet_mx
from repro.network.wire import PacketKind, WirePacket, WireSegment
from repro.sim import Simulator

from tests.core.helpers import control_entry, data_entry, make_driver


@pytest.fixture
def driver():
    return make_driver(Simulator())[0]


@pytest.fixture
def cost():
    return CostModel()


def plan_of(driver, sizes, submit_time=0.0, kind=PacketKind.EAGER):
    flow = Flow(0, "f", "n0", "n1")
    items = [
        PlanItem(data_entry(flow, s, submit_time=submit_time), s) for s in sizes
    ]
    return TransferPlan(driver, kind, "n1", 0, items)


class TestOccupancy:
    def test_matches_driver_costs(self, driver, cost):
        plan = plan_of(driver, [1024])
        occ = cost.occupancy(plan)
        assert occ > 0
        # Larger plans cost more.
        assert cost.occupancy(plan_of(driver, [2048])) > occ

    def test_aggregation_amortizes_startup(self, driver, cost):
        """One 8-segment packet is far cheaper than eight 1-segment packets."""
        one_big = cost.occupancy(plan_of(driver, [256] * 8))
        eight_small = 8 * cost.occupancy(plan_of(driver, [256]))
        assert one_big < 0.5 * eight_small

    def test_control_plan_cheap(self, driver, cost):
        ctl = TransferPlan(
            driver, PacketKind.RDV_REQ, "n1", 0, [PlanItem(control_entry("n1"), 16)]
        )
        assert cost.occupancy(ctl) < cost.occupancy(plan_of(driver, [4096]))

    def test_link_override_scales_charge_and_price_alike(self, cost):
        """``LinkModel.sender_occupancy`` is the one occupancy formula: a
        link type overriding it changes what the driver charges the NIC
        and what the cost model predicts, by the same factor."""

        class PessimisticLink(LinkModel):
            def sender_occupancy(self, size, mode, **kwargs):
                return 2.0 * LinkModel.sender_occupancy(self, size, mode, **kwargs)

        def charged_and_priced(link):
            driver, _ = make_driver(Simulator(), link=link)
            plan = plan_of(driver, [100, 300, 700])
            segments = tuple(
                WireSegment(item.entry.fragment, 0, item.take) for item in plan.items
            )
            driver.send(WirePacket(PacketKind.EAGER, "n0", "n1", 0, segments, packet_id=1))
            return driver.nic.stats.busy_time, cost.occupancy(plan)

        stock = myrinet_mx()
        charged, priced = charged_and_priced(stock)
        assert charged == priced
        assert charged_and_priced(PessimisticLink(**dataclasses.asdict(stock))) == (
            2.0 * charged,
            2.0 * priced,
        )


class TestScore:
    def test_bigger_payload_higher_score(self, driver, cost):
        small = cost.score(plan_of(driver, [64]), now=0.0)
        # aggregating 8 of them amortizes alpha -> higher value density
        big = cost.score(plan_of(driver, [64] * 8), now=0.0)
        assert big > small

    def test_aging_raises_score(self, driver, cost):
        plan = plan_of(driver, [64], submit_time=0.0)
        fresh = cost.score(plan, now=0.0)
        stale = cost.score(plan, now=1e-3)
        assert stale > fresh

    def test_control_bonus(self, driver, cost):
        ctl = TransferPlan(
            driver, PacketKind.RDV_REQ, "n1", 0, [PlanItem(control_entry("n1"), 16)]
        )
        tiny_data = plan_of(driver, [16])
        assert cost.score(ctl, now=0.0) > cost.score(tiny_data, now=0.0)

    def test_wire_bytes_includes_framing(self, driver, cost):
        from repro.network.wire import HEADER_BYTES_PER_SEGMENT, PACKET_HEADER_BYTES

        plan = plan_of(driver, [100, 100])
        assert cost.wire_bytes(plan) == PACKET_HEADER_BYTES + 2 * HEADER_BYTES_PER_SEGMENT + 200

