"""Tests for the greedy packet builder shared by the strategies."""

import pytest

from repro.core.constraints import ConstraintChecker
from repro.core.config import EngineConfig
from repro.core import kernel
from repro.core.strategies._builder import build_from_queue
from repro.madeleine.message import Flow, PackMode
from repro.madeleine.submit import EntryKind, EntryState
from repro.network.wire import PacketKind
from repro.sim import Simulator
from repro.util.units import KiB

from tests.core.helpers import StubEngine, control_entry, data_entry, make_driver
from tests.core.oracle import park_oversized

# Every test here runs against the production walk and again against the
# oracle it is compared to elsewhere (tests/core/conftest.py).
pytestmark = pytest.mark.usefixtures("walk")


@pytest.fixture
def setup():
    sim = Simulator()
    driver, _ = make_driver(sim)
    engine = StubEngine([driver], sim=sim)
    queue = engine.waiting.queue(0)
    return engine, driver, queue


def fill(engine, queue, entries):
    for e in entries:
        queue.append(e)
    return entries


class TestBasicAggregation:
    def test_single_entry(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        [e] = fill(engine, queue, [data_entry(flow, 100)])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.kind is PacketKind.EAGER
        assert plan.entries == [e]
        assert plan.payload_bytes == 100

    def test_cross_flow_aggregation(self, setup):
        engine, driver, queue = setup
        flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(4)]
        entries = fill(engine, queue, [data_entry(f, 256) for f in flows])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.entries == entries
        assert plan.payload_bytes == 4 * 256

    def test_max_items_respected(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        fill(engine, queue, [data_entry(flow, 10) for _ in range(10)])
        plan = build_from_queue(engine, driver, queue, max_items=3)
        assert len(plan.items) == 3

    def test_size_budget_respected(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        size = driver.caps.max_aggregate_size // 2 + 1
        fill(engine, queue, [data_entry(flow, size) for _ in range(3)])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert len(plan.items) == 1  # second one would exceed the budget

    def test_empty_queue_returns_none(self, setup):
        engine, driver, queue = setup
        assert build_from_queue(engine, driver, queue, max_items=16) is None

    def test_plans_satisfy_constraints(self, setup):
        engine, driver, queue = setup
        checker = ConstraintChecker()
        flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(3)]
        fill(
            engine,
            queue,
            [data_entry(flows[i % 3], 64 * (i + 1)) for i in range(9)],
        )
        plan = build_from_queue(engine, driver, queue, max_items=16)
        checker.check(plan, queue.pending())


class TestDestinationSplit:
    def test_only_one_destination_per_packet(self, setup):
        engine, driver, queue = setup
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n2")
        e1 = data_entry(f1, 100)
        e2 = data_entry(f2, 100)
        e3 = data_entry(f1, 100)
        fill(engine, queue, [e1, e2, e3])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.dst == "n1"
        assert plan.entries == [e1, e3]


class TestModes:
    def test_safer_travels_alone(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        safer = data_entry(flow, 100, mode=PackMode.SAFER)
        cheap = data_entry(flow, 100)
        fill(engine, queue, [safer, cheap])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.entries == [safer]
        assert len(plan.items) == 1

    def test_safer_skipped_when_plan_started(self, setup):
        engine, driver, queue = setup
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n1")
        cheap = data_entry(f1, 100)
        safer = data_entry(f2, 100, mode=PackMode.SAFER)
        cheap2 = data_entry(f1, 100)
        fill(engine, queue, [cheap, safer, cheap2])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.entries == [cheap, cheap2]

    def test_later_overtaken_within_flow(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        big_later = data_entry(flow, driver.caps.max_aggregate_size, mode=PackMode.LATER)
        small = data_entry(flow, 64)
        fill(engine, queue, [big_later, small])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        # The LATER entry fills the whole budget; the small one can't fit.
        # Build with a smaller budget by seeding after it instead:
        assert plan.entries[0] is big_later

    def test_fifo_blocking_within_flow(self, setup):
        engine, driver, queue = setup
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n2")
        other_dst = data_entry(f2, 100)  # seeds dst n2
        blocked = data_entry(f1, 100)  # n1: skipped (wrong dst)
        follower = data_entry(f1, 100)  # must NOT be taken after skip
        fill(engine, queue, [other_dst, blocked, follower])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.entries == [other_dst]


class TestRendezvousPath:
    def test_oversized_entry_parked(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        big = data_entry(flow, driver.caps.eager_threshold + 1)
        small = data_entry(flow, 64)
        fill(engine, queue, [big, small])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert engine.parked == [big]
        assert big.state is EntryState.RDV_PENDING
        assert plan.entries == [small]  # traffic keeps flowing

    def test_no_park_when_disallowed(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        big = data_entry(flow, driver.caps.eager_threshold + 1)
        fill(engine, queue, [big])
        plan = build_from_queue(engine, driver, queue, max_items=16, allow_park=False)
        assert plan is None
        assert engine.parked == []

    def test_rdv_ready_dispatched_alone(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        bulk = data_entry(flow, 256 * KiB)
        bulk.state = EntryState.RDV_READY
        small = data_entry(flow, 64)
        fill(engine, queue, [bulk, small])
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.kind is PacketKind.RDV_DATA
        assert plan.entries == [bulk]
        # single driver: no striping, whole payload in one request
        assert plan.items[0].take == 256 * KiB

    def test_rdv_ready_striped_with_multiple_rails(self):
        sim = Simulator()
        d1, _ = make_driver(sim, "mx0")
        d2, _ = make_driver(sim, "mx1")
        engine = StubEngine([d1, d2], config=EngineConfig(stripe_chunk=64 * KiB), sim=sim)
        queue = engine.waiting.queue(0)
        flow = Flow(0, "f", "n0", "n1")
        bulk = data_entry(flow, 256 * KiB)
        bulk.state = EntryState.RDV_READY
        queue.append(bulk)
        plan = build_from_queue(engine, d1, queue, max_items=16)
        assert plan.items[0].take == 64 * KiB

    def test_park_oversized_sweep(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        entries = [
            data_entry(flow, driver.caps.eager_threshold + 1),
            data_entry(flow, 64),
            data_entry(flow, driver.caps.eager_threshold + 5),
        ]
        fill(engine, queue, entries)
        # The search's up-front sweep: production picks the indices off
        # the arrays, the oracle parks entry by entry.
        arrays = queue.pending_arrays(engine.config.lookahead_window)
        assert kernel.oversized_waiting_indices(arrays, driver.constants) == [0, 2]
        parked = park_oversized(engine, driver, queue)
        assert parked == 2
        assert queue.pending() == [entries[1]]


class TestControlEntries:
    def test_control_entry_gets_own_packet(self, setup):
        engine, driver, queue = setup
        req = control_entry("n1", kind=EntryKind.RDV_REQ, token=9)
        queue.append(req)
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.kind is PacketKind.RDV_REQ
        assert plan.meta == {"token": 9}

    def test_control_after_data_not_mixed(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        e = data_entry(flow, 64)
        req = control_entry("n1", token=1)
        fill(engine, queue, [e])
        queue.append(req)
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.kind is PacketKind.EAGER
        assert plan.entries == [e]


class TestSeedsAndSameMessage:
    def test_skip_seeds_produces_alternative_plan(self, setup):
        engine, driver, queue = setup
        f1, f2 = Flow(0, "a", "n0", "n1"), Flow(1, "b", "n0", "n1")
        e1, e2 = data_entry(f1, 100), data_entry(f2, 200)
        fill(engine, queue, [e1, e2])
        plan = build_from_queue(engine, driver, queue, max_items=16, skip_seeds=1)
        assert plan.entries == [e2]

    def test_same_message_only(self, setup):
        engine, driver, queue = setup
        from repro.madeleine.message import Message
        from repro.madeleine.submit import EntryKind, SubmitEntry

        flow = Flow(0, "f", "n0", "n1")
        m1, m2 = Message(flow, seq=0), Message(flow, seq=1)
        frags1 = [m1.add_fragment(64), m1.add_fragment(64)]
        frag2 = m2.add_fragment(64)
        entries = [
            SubmitEntry(EntryKind.DATA, "n1", 0.0, fragment=f, flow=flow)
            for f in frags1 + [frag2]
        ]
        fill(engine, queue, entries)
        plan = build_from_queue(
            engine, driver, queue, max_items=16, same_message_only=True
        )
        assert plan.entries == entries[:2]  # m2's fragment excluded

    def test_protocol_only_skips_waiting_data(self, setup):
        engine, driver, queue = setup
        flow = Flow(0, "f", "n0", "n1")
        e = data_entry(flow, 64)
        req = control_entry("n1", token=3)
        fill(engine, queue, [e])
        queue.append(req)
        plan = build_from_queue(
            engine, driver, queue, max_items=16, protocol_only=True
        )
        assert plan.kind is PacketKind.RDV_REQ


class TestPartialTake:
    def test_big_entry_chunked_when_no_rdv(self):
        """TCP-style drivers chunk oversize entries instead of rendezvous."""
        from repro.drivers.tcp import TcpDriver
        from repro.network.nic import NIC
        from repro.network.technologies import gige_tcp

        sim = Simulator()
        nic = NIC(sim, "t0", "n0", gige_tcp(), lambda p, o: None)
        driver = TcpDriver(nic)
        engine = StubEngine([driver], sim=sim)
        queue = engine.waiting.queue(0)
        flow = Flow(0, "f", "n0", "n1")
        big = data_entry(flow, 3 * driver.caps.max_aggregate_size)
        queue.append(big)
        plan = build_from_queue(engine, driver, queue, max_items=16)
        assert plan.items[0].take == driver.caps.max_aggregate_size
        assert engine.parked == []
