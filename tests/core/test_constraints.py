"""Tests for the constraint checker — the optimizer's hard rules."""

import pytest

from repro.core.constraints import ConstraintChecker
from repro.core.plan import PlanItem, TransferPlan
from repro.madeleine.message import Flow, PackMode
from repro.madeleine.submit import EntryState
from repro.network.wire import PacketKind
from repro.sim import Simulator
from repro.util.errors import ConstraintViolation

from tests.core.helpers import control_entry, data_entry, make_driver


@pytest.fixture
def driver():
    return make_driver(Simulator())[0]


@pytest.fixture
def checker():
    return ConstraintChecker()


def eager_plan(driver, items, dst="n1", channel=0):
    return TransferPlan(driver, PacketKind.EAGER, dst, channel, items)


class TestSingleTarget:
    def test_mixed_destinations_rejected(self, driver, checker):
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n2")
        e1, e2 = data_entry(f1, 10), data_entry(f2, 10)
        # TransferPlan's own validation catches this at build time.
        with pytest.raises(Exception):
            eager_plan(driver, [PlanItem(e1, 10), PlanItem(e2, 10)], dst="n1")


class TestIsolation:
    def test_safer_alone_ok(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        e = data_entry(flow, 10, mode=PackMode.SAFER)
        plan = eager_plan(driver, [PlanItem(e, 10)])
        checker.check(plan, [e])

    def test_safer_aggregated_rejected(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        safer = data_entry(flow, 10, mode=PackMode.SAFER)
        other = data_entry(flow, 10)
        plan = eager_plan(driver, [PlanItem(safer, 10), PlanItem(other, 10)])
        with pytest.raises(ConstraintViolation):
            checker.check(plan, [safer, other])

    def test_cheaper_aggregated_ok(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        a, b = data_entry(flow, 10), data_entry(flow, 10)
        plan = eager_plan(driver, [PlanItem(a, 10), PlanItem(b, 10)])
        checker.check(plan, [a, b])


class TestCapabilities:
    def test_oversized_eager_rejected(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        e = data_entry(flow, driver.caps.max_aggregate_size + 1)
        plan = eager_plan(driver, [PlanItem(e, driver.caps.max_aggregate_size + 1)])
        with pytest.raises(ConstraintViolation):
            checker.check(plan, [e])

    def test_should_be_rendezvous_rejected(self, driver, checker):
        """An entry above eager_threshold must not ship whole as eager."""
        flow = Flow(0, "f", "n0", "n1")
        size = driver.caps.eager_threshold  # at threshold: fine
        e = data_entry(flow, size)
        checker.check(eager_plan(driver, [PlanItem(e, size)]), [e])

    def test_rdv_data_requires_ready_state(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        e = data_entry(flow, 100_000)
        plan = TransferPlan(driver, PacketKind.RDV_DATA, "n1", 0, [PlanItem(e, 1000)])
        with pytest.raises(ConstraintViolation):
            checker.check(plan, [e])
        e.state = EntryState.RDV_READY
        checker.check(plan, [e])


class TestFlowFifo:
    def test_prefix_take_ok(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        a, b, c = (data_entry(flow, 10) for _ in range(3))
        plan = eager_plan(driver, [PlanItem(a, 10), PlanItem(b, 10)])
        checker.check(plan, [a, b, c])

    def test_skip_then_take_rejected(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        a, b = data_entry(flow, 10), data_entry(flow, 10)
        plan = eager_plan(driver, [PlanItem(b, 10)])  # skips a
        with pytest.raises(ConstraintViolation):
            checker.check(plan, [a, b])

    def test_skip_later_entry_allowed(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        deferred = data_entry(flow, 10, mode=PackMode.LATER)
        b = data_entry(flow, 10)
        plan = eager_plan(driver, [PlanItem(b, 10)])
        checker.check(plan, [deferred, b])

    def test_cross_flow_interleaving_allowed(self, driver, checker):
        """Skipping another flow's entries never violates this flow's FIFO."""
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n1")
        a1, b1, a2 = data_entry(f1, 10), data_entry(f2, 10), data_entry(f1, 10)
        plan = eager_plan(driver, [PlanItem(a1, 10), PlanItem(a2, 10)])  # skips b1
        checker.check(plan, [a1, b1, a2])

    def test_control_entries_no_fifo(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        ctl = control_entry("n1", token=1)
        e = data_entry(flow, 10)
        plan = eager_plan(driver, [PlanItem(e, 10)])  # skips the control entry
        checker.check(plan, [ctl, e])

    def test_rdv_ready_exempt(self, driver, checker):
        flow = Flow(0, "f", "n0", "n1")
        waiting = data_entry(flow, 10)
        bulk = data_entry(flow, 100_000)
        bulk.state = EntryState.RDV_READY
        plan = TransferPlan(driver, PacketKind.RDV_DATA, "n1", 0, [PlanItem(bulk, 1000)])
        checker.check(plan, [waiting, bulk])
