"""Property tests: the greedy builder only ever produces legal plans.

The constraint checker (``tests/core/constraints.py``) encodes the
paper's §3 constraint semantics independently of the builder; fuzzing random queue contents against
random build parameters proves the two agree — i.e. no strategy built
on the shared builder can violate message-structure constraints.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.strategies._builder import build_from_queue
from repro.madeleine.message import Flow, PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.wire import PacketKind
from repro.sim import Simulator
from repro.util.units import KiB

from tests.core.constraints import ConstraintChecker
from tests.core.helpers import StubEngine, make_driver, next_message

# Every test here runs against the production walk and again against the
# oracle it is compared to elsewhere (tests/core/conftest.py).
pytestmark = pytest.mark.usefixtures("walk")


@st.composite
def queue_contents(draw):
    """Random waiting-list contents: several flows, mixed modes/sizes,
    some control entries, some rendezvous-ready bulk."""
    n_flows = draw(st.integers(min_value=1, max_value=4))
    flows = [
        Flow(i, f"f{i}", "n0", draw(st.sampled_from(["n1", "n2"])))
        for i in range(n_flows)
    ]
    entries = []
    n_entries = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n_entries):
        kind = draw(
            st.sampled_from(["data", "data", "data", "control", "rdv_ready"])
        )
        if kind == "control":
            entries.append(
                SubmitEntry(
                    EntryKind.RDV_REQ,
                    draw(st.sampled_from(["n1", "n2"])),
                    0.0,
                    meta={"token": len(entries)},
                )
            )
            continue
        flow = draw(st.sampled_from(flows))
        message = next_message(flow)
        size = draw(st.integers(min_value=1, max_value=64 * KiB))
        mode = draw(st.sampled_from(list(PackMode)))
        fragment = message.add_fragment(size, mode=mode)
        entry = SubmitEntry(EntryKind.DATA, flow.dst, 0.0, fragment=fragment, flow=flow)
        if kind == "rdv_ready":
            entry.state = EntryState.RDV_READY
        entries.append(entry)
    return entries


@st.composite
def build_params(draw):
    return {
        "max_items": draw(st.integers(min_value=1, max_value=20)),
        "skip_seeds": draw(st.integers(min_value=0, max_value=3)),
        "same_message_only": draw(st.booleans()),
        "allow_park": draw(st.booleans()),
        "protocol_only": draw(st.booleans()),
    }


class TestBuilderAlwaysLegal:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(entries=queue_contents(), params=build_params())
    def test_plan_passes_checker(self, entries, params):
        sim = Simulator()
        driver, _ = make_driver(sim)
        engine = StubEngine([driver], sim=sim, config=EngineConfig())
        queue = engine.waiting.queue(0)
        for entry in entries:
            queue.append(entry)

        plan = build_from_queue(engine, driver, queue, **params)
        if plan is None:
            return
        # The checker sees the post-parking pending snapshot, exactly
        # like the engine's dispatch path.
        ConstraintChecker().check(plan, queue.pending())

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(entries=queue_contents(), params=build_params())
    def test_plan_respects_driver_limits(self, entries, params):
        sim = Simulator()
        driver, _ = make_driver(sim)
        engine = StubEngine([driver], sim=sim)
        queue = engine.waiting.queue(0)
        for entry in entries:
            queue.append(entry)

        plan = build_from_queue(engine, driver, queue, **params)
        if plan is None:
            return
        assert len(plan.items) <= max(params["max_items"], 1)
        if plan.kind is PacketKind.EAGER:
            assert plan.payload_bytes <= driver.caps.max_aggregate_size
        for item in plan.items:
            assert 0 < item.take <= item.entry.remaining

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(entries=queue_contents())
    def test_repeated_building_drains_queue(self, entries):
        """Dispatch-consume loops terminate: repeatedly building and
        consuming plans empties every queue (no livelock, no stuck
        entries) once parked entries are excluded."""
        sim = Simulator()
        driver, _ = make_driver(sim)
        engine = StubEngine([driver], sim=sim)
        queue = engine.waiting.queue(0)
        for entry in entries:
            queue.append(entry)

        for _ in range(10_000):
            plan = build_from_queue(engine, driver, queue, max_items=16)
            if plan is None:
                break
            for item in plan.items:
                item.entry.consume(item.take)
                if item.entry.state is EntryState.SENT:
                    queue.remove(item.entry)
        else:  # pragma: no cover - would be a livelock
            raise AssertionError("queue did not drain")
        assert not queue
