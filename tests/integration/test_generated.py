"""The generated configuration space, checked against every invariant.

One hypothesis strategy draws a whole scenario: engine, strategy,
channel policy, rails, every ``EngineConfig`` knob, driver-capability
overrides, a fault block with one rail outage, a ``tuner`` block on the
optimizing engine, and messages sized at ±1 B of every threshold the
drawn configuration has, in every ``PackMode``.  Each draw runs twice (untraced, then traced) and must
keep every invariant of :data:`tests.invariants.INVARIANTS`; every
dispatch inside it is plan- and price-checked by the root
``conftest.py``.

Tier-1 runs ten times hypothesis's configured budget (1,000 scenarios
under the default profile); CI runs the ``deep`` profile on top.  A
shrunk scenario that once broke an invariant stays below as a named
regression, and so does a corner of the space the generator does not
draw.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RAIL_BINDINGS, EngineConfig
from repro.core.plan import PlanItem, TransferPlan
from repro.core.strategies import STRATEGY_TYPES
from repro.drivers.base import Driver
from repro.drivers.elan import ELAN_CAPABILITIES
from repro.drivers.mx import MX_CAPABILITIES
from repro.drivers.tcp import TCP_CAPABILITIES
from repro.madeleine.message import Flow, Message, PackMode
from repro.network.faults import FaultConfig
from repro.network.virtual import TrafficClass
from repro.network.wire import PacketKind
from repro.obs.plane import ObservabilityConfig
from repro.runtime.cluster import Cluster
from repro.runtime.scenario import POLICY_TYPES, parse_cluster
from repro.util.units import KiB, us

from tests.core.constraints import ConstraintViolation
from tests.core.helpers import data_entry
from tests.invariants import (
    INVARIANTS,
    Dispatch,
    InvariantViolation,
    Run,
    run_twice,
)

ENGINES = ("optimizing", "legacy")
CAPABILITIES = {"mx": MX_CAPABILITIES, "elan": ELAN_CAPABILITIES, "tcp": TCP_CAPABILITIES}
#: (size, mode, express) per fragment.
Fragment = tuple[int, PackMode, bool]


@dataclass(frozen=True)
class Scenario:
    """Everything one generated run is built from (its repr is the
    reproduction recipe hypothesis prints for a failing draw)."""

    engine: str = "optimizing"
    n_nodes: int = 2
    strategy: str = "aggregate"
    policy: str = "pooled"
    networks: tuple[tuple[str, int], ...] = (("mx", 1),)
    config: dict = dataclasses.field(default_factory=dict)
    #: Technology → ``DriverCapabilities`` field overrides.
    caps: dict = dataclasses.field(default_factory=dict)
    faults: dict | None = None
    #: The scenario ``"tuner"`` block (optimizing engine only).
    tuner: dict | None = None
    #: ``(src, dst, traffic class, messages)``; a message is a tuple of fragments.
    flows: tuple[tuple[str, str, TrafficClass, tuple[tuple[Fragment, ...], ...]], ...] = ()
    seed: int = 0

    def make(self, traced: bool) -> Cluster:
        return Cluster(
            n_nodes=self.n_nodes,
            networks=self.networks,
            engine=self.engine,
            strategy=self.strategy,
            policy=POLICY_TYPES[self.policy],
            config=EngineConfig(**self.config),
            seed=self.seed,
            driver_caps={
                tech: replace(CAPABILITIES[tech], **over)
                for tech, over in self.caps.items()
            },
            faults=FaultConfig.from_spec(self.faults) if self.faults is not None else None,
            observability=ObservabilityConfig() if traced else None,
            rail_order=parse_cluster(
                {"cluster": {"engine": self.engine}, "tuner": self.tuner}
            )["rail_order"],
        )

    def submit(self, cluster: Cluster) -> list[Message]:
        submitted = []
        for src, dst, traffic_class, messages in self.flows:
            flow = cluster.api(src).open_flow(dst, traffic_class=traffic_class)
            for fragments in messages:
                session = cluster.api(src).begin(flow)
                for size, mode, express in fragments:
                    session.pack(size, mode=mode, express=express)
                submitted.append(session.flush())
        return submitted

    def run(self) -> Run:
        return run_twice(self.make, self.submit)


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
# Strategies that do not depend on an earlier draw are built once: hypothesis
# spends more time validating a fresh strategy than drawing from it.
NETWORKS = st.lists(
    st.tuples(st.sampled_from(tuple(CAPABILITIES)), st.integers(1, 2)), min_size=1, max_size=2
).map(tuple)
CONFIG = st.fixed_dictionaries(
    {
        "lookahead_window": st.integers(1, 32),
        "nagle_delay": st.sampled_from((0.0, 2 * us, 10 * us)),
        "nagle_min_bytes": st.integers(0, 8 * KiB),
        "stripe_chunk": st.none() | st.integers(1 * KiB, 64 * KiB),
        "search_budget": st.integers(1, 32),
        "rail_binding": st.sampled_from(RAIL_BINDINGS),
        "rdv_timeout": st.none() | st.floats(0.1 * us, 100 * us),
    }
)
CAPS_OVERRIDE = st.fixed_dictionaries(
    {},
    optional={
        "max_aggregate_size": st.integers(1 * KiB, 64 * KiB),
        "eager_threshold": st.integers(0, 64 * KiB),
    },
)
_RATE = st.sampled_from((0.0, 0.01, 0.05, 0.1))
FAULTS = st.fixed_dictionaries(
    {
        "drop": _RATE,
        "corrupt": _RATE,
        "duplicate": _RATE,
        "jitter": st.sampled_from((0.0, 1 * us, 5 * us)),
        "seed": st.integers(0, 3),
    }
)
#: Rail selection that acts within a draw: a few spans per rail suffice.
TUNER = st.fixed_dictionaries(
    {
        "rails": st.fixed_dictionaries(
            {
                "p99_budget_us": st.sampled_from((1.0, 20.0, 1000.0)),
                "min_samples": st.integers(1, 4),
                "refresh_every": st.integers(1, 4),
            }
        )
    }
)
#: ``(at, down for)`` of one outage of the first network's rail 0.
OUTAGE = st.none() | st.tuples(st.floats(0.0, 50 * us), st.floats(1 * us, 50 * us))
#: A size is either small, or ``(threshold position, -1/0/+1 B)``: the
#: position picks one of the thresholds the draw configured.
SIZE = st.integers(1, 4 * KiB) | st.tuples(st.integers(0, 15), st.sampled_from((-1, 0, 1)))
FLOWS = st.lists(
    st.tuples(
        st.sampled_from((("n0", "n1"), ("n1", "n0"))),
        st.sampled_from(tuple(TrafficClass)),
        st.lists(
            st.lists(
                st.tuples(SIZE, st.sampled_from(tuple(PackMode)), st.booleans()),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def scenarios(draw) -> Scenario:
    engine = draw(st.sampled_from(ENGINES))
    tuner = draw(st.none() | TUNER) if engine == "optimizing" else None
    networks = draw(NETWORKS)
    config = draw(CONFIG)
    caps = {}
    for tech in sorted({tech for tech, _ in networks}):
        over = draw(CAPS_OVERRIDE)
        if over:
            caps[tech] = over
    faults = draw(st.none() | FAULTS)
    outage = draw(OUTAGE) if faults is not None else None
    if outage is not None:
        at, down = outage
        faults["outages"] = [
            {"network": f"{networks[0][0]}0", "at": at, "recover": at + down}
        ]

    # Sizes at and either side of every threshold this draw configured.
    thresholds = {config["nagle_min_bytes"]}
    if config["stripe_chunk"] is not None:
        thresholds.add(config["stripe_chunk"])
    for tech, _ in networks:
        effective = replace(CAPABILITIES[tech], **caps.get(tech, {}))
        thresholds |= {
            effective.max_aggregate_size,
            effective.eager_threshold,
            effective.pio_threshold,
        }
    edges = sorted(thresholds)

    def size(spec) -> int:
        if isinstance(spec, int):
            return spec
        position, delta = spec
        return max(1, edges[position % len(edges)] + delta)

    flows = tuple(
        (
            src, dst, traffic_class,
            tuple(
                tuple((size(spec), mode, express) for spec, mode, express in message)
                for message in messages
            ),
        )
        for (src, dst), traffic_class, messages in draw(FLOWS)
    )
    return Scenario(
        engine=engine,
        strategy=draw(st.sampled_from(sorted(STRATEGY_TYPES))),
        policy=draw(st.sampled_from(sorted(POLICY_TYPES))),
        networks=networks,
        config=config,
        caps=caps,
        faults=faults,
        tuner=tuner,
        flows=flows,
        seed=draw(st.integers(0, 3)),
    )


@settings(
    max_examples=10 * settings().max_examples,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=scenarios())
def test_every_generated_run_keeps_every_invariant(scenario):
    INVARIANTS.check(scenario.run())


# ----------------------------------------------------------------------
# named regressions: shrunk scenarios that once broke an invariant, and
# corners the generator does not draw
# ----------------------------------------------------------------------
def _one_flow(traffic_class: TrafficClass, *messages: tuple[Fragment, ...]):
    return (("n0", "n1", traffic_class, messages),)


_BULK_64K = ((64 * KiB, PackMode.CHEAPER, False),)


def _sends(size: int, count: int) -> tuple[tuple[Fragment, ...], ...]:
    """``count`` messages as ``MadAPI.send`` packs them: a 16 B express
    header, then the payload."""
    return (((16, PackMode.CHEAPER, True), (size, PackMode.CHEAPER, False)),) * count


REGRESSIONS = {
    # A SAFER fragment bigger than ``max_aggregate_size`` whose rendezvous
    # times out fell back to one eager packet of the whole fragment
    # (``CapabilityError: eager packet of 32769 B exceeds
    # max_aggregate_size=32768``); the walk now chunks it to the budget.
    "safer_after_rdv_timeout": Scenario(
        config={"rdv_timeout": 0.1 * us},
        flows=_one_flow(TrafficClass.DEFAULT, ((32 * KiB + 1, PackMode.SAFER, False),)),
    ),
    # The same uncapped fragment without any handshake: TCP has no
    # rendezvous, so a SAFER fragment one byte over its budget went out
    # whole (``eager plan of 65537 B exceeds max_aggregate_size=65536``).
    "safer_over_budget_without_rendezvous": Scenario(
        networks=(("tcp", 1),),
        flows=_one_flow(TrafficClass.BULK, ((64 * KiB + 1, PackMode.SAFER, False),)),
    ),
    # MX parks both 64 KiB fragments, sends one RDV_REQ, and the idle
    # TCP rail picks up the other: ``CapabilityError: driver n0.tcp10
    # does not support rendezvous``.  The engine now hands a handshake
    # planned on such a rail to an idle rail that speaks rendezvous.
    "rdv_handshake_on_rail_without_rendezvous": Scenario(
        networks=(("mx", 1), ("tcp", 1)),
        flows=_one_flow(TrafficClass.BULK, _BULK_64K * 2),
    ),
    # Static binding gives the handshake's channel to the TCP rail alone,
    # so a handshake left for "a rail that speaks it" never leaves.
    "rdv_handshake_whose_channel_only_tcp_serves": Scenario(
        networks=(("tcp", 1), ("mx", 1)),
        config={"rail_binding": "static"},
        caps={"tcp": {"max_aggregate_size": 1024}},
        flows=_one_flow(TrafficClass.BULK, ((64 * KiB - 1, PackMode.CHEAPER, False),)),
    ),
    # Static binding: rail 1 parks the bulk fragment and queues its
    # RDV_REQ on channel 0, which only rail 0 serves, and rail 0 was
    # already asked in this pump.  The message never completed.
    "static_binding_rdv_req_behind_a_passed_rail": Scenario(
        networks=(("mx", 2),),
        config={"rail_binding": "static"},
        flows=_one_flow(TrafficClass.BULK, _BULK_64K),
    ),
    # A fragment whose handshake timed out is sent eager by design
    # (``no_rdv``); the plan checker still demanded a rendezvous for it.
    "timed_out_fragment_goes_eager": Scenario(
        config={"rdv_timeout": 0.1 * us},
        caps={"mx": {"eager_threshold": 0}},
        flows=_one_flow(TrafficClass.DEFAULT, ((1, PackMode.CHEAPER, False),)),
    ),
    # A retransmission into a rail that is down was lost but not
    # reported: ``packets_dropped`` counted only the fault lottery.
    "outage_drop_reported": Scenario(
        caps={"mx": {"eager_threshold": 1}},
        faults={
            "corrupt": 0.05, "duplicate": 0.01, "jitter": 1 * us, "seed": 3,
            "outages": [{"network": "mx0", "at": 45.06 * us, "recover": 51.1 * us}],
        },
        flows=(
            (
                "n1", "n0", TrafficClass.BULK,
                (
                    ((1, PackMode.CHEAPER, False), (1, PackMode.CHEAPER, False)),
                    ((1, PackMode.CHEAPER, False), (669, PackMode.CHEAPER, False)),
                ),
            ),
        ),
    ),
    # The lottery drew "drop" and "duplicate" for one packet; the report
    # counted a duplicate of a packet that never left.
    "duplicate_of_a_dropped_packet": Scenario(
        policy="adaptive",
        networks=(("mx", 2),),
        config={"lookahead_window": 1, "search_budget": 1},
        faults={"drop": 0.1, "corrupt": 0.05, "duplicate": 0.05, "seed": 3},
        flows=_one_flow(
            TrafficClass.BULK,
            ((2, PackMode.CHEAPER, False), (1, PackMode.CHEAPER, False), (1, PackMode.CHEAPER, False)),
        ),
    ),
    # The generator draws windows of 1 to 32 entries; 40 messages on 4
    # flows fill a window of 64.
    "window_64": Scenario(
        config={"lookahead_window": 64},
        flows=(("n0", "n1", TrafficClass.DEFAULT, _sends(256, 10)),) * 4,
    ),
    # The generator draws two nodes; every ordered pair of four exchanges
    # three messages.
    "all_to_all_4_nodes": Scenario(
        n_nodes=4,
        flows=tuple(
            (f"n{src}", f"n{dst}", TrafficClass.DEFAULT, _sends(512, 3))
            for src in range(4)
            for dst in range(4)
            if src != dst
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression(name):
    INVARIANTS.check(REGRESSIONS[name].run())


# ----------------------------------------------------------------------
# the invariant set itself, and a planted violation of each invariant
# ----------------------------------------------------------------------
#: A small lossless scenario that exercises aggregation and rendezvous.
REFERENCE = Scenario(
    flows=(
        (
            "n0",
            "n1",
            TrafficClass.DEFAULT,
            (
                ((512, PackMode.CHEAPER, False), (64 * KiB, PackMode.CHEAPER, False)),
                ((256, PackMode.SAFER, False),),
                ((128, PackMode.CHEAPER, False),),
            ),
        ),
        ("n0", "n1", TrafficClass.CONTROL, (((64, PackMode.CHEAPER, True),),) * 3),
    ),
)


@pytest.fixture
def good_run() -> Run:
    run = REFERENCE.run()
    INVARIANTS.check(run)
    return run


class TestInvariantSet:
    def test_declares_the_eight_invariants(self):
        assert INVARIANTS.names() == [
            "plan_valid",
            "priced_as_charged",
            "exactly_once_fifo",
            "bytes_conserved",
            "report_recount",
            "quiescent",
            "traced_equals_untraced",
            "deterministic",
        ]

    def test_lookup_by_name(self):
        assert INVARIANTS["quiescent"].name == "quiescent"
        assert INVARIANTS["plan_valid"].subject is Dispatch

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown invariant 'liveness'.*quiescent"):
            INVARIANTS["liveness"]

    def test_subjects_partition_the_set(self):
        on_dispatch = {inv.name for inv in INVARIANTS.on(Dispatch)}
        on_run = {inv.name for inv in INVARIANTS.on(Run)}
        assert on_dispatch == {"plan_valid", "priced_as_charged"}
        assert on_dispatch | on_run == set(INVARIANTS.names())


class TestPlantedViolations:
    def test_plan_valid_rejects_an_aggregated_safer_fragment(self):
        cluster = Cluster()
        engine = cluster.engine("n0")
        flow = Flow(0, "f", "n0", "n1")
        safer = data_entry(flow, 256, mode=PackMode.SAFER)
        other = data_entry(flow, 256)
        for entry in (safer, other):
            entry.fragment.message.mark_flushed(0.0)
            engine._enqueue(entry)
        channel = engine.policy.channel_for_entry(safer)
        plan = TransferPlan(
            engine.drivers[0],
            PacketKind.EAGER,
            "n1",
            channel,
            [PlanItem(safer, 256), PlanItem(other, 256)],
        )
        with pytest.raises(ConstraintViolation, match="SAFER"):
            INVARIANTS["plan_valid"].check(Dispatch(engine, plan))
        # The suite-wide instrument is wired: the engine refuses it too.
        with pytest.raises(ConstraintViolation, match="SAFER"):
            engine._dispatch(plan)

    def test_priced_as_charged_catches_a_charge_changed_on_one_side(self, monkeypatch):
        cluster = Cluster()
        engine = cluster.engine("n0")
        entry = data_entry(Flow(0, "f", "n0", "n1"), 256)
        entry.fragment.message.mark_flushed(0.0)
        engine._enqueue(entry)
        channel = engine.policy.channel_for_entry(entry)
        plan = TransferPlan(
            engine.drivers[0], PacketKind.EAGER, "n1", channel, [PlanItem(entry, 256)]
        )
        price = engine.cost.occupancy(plan)
        INVARIANTS["priced_as_charged"].check(Dispatch(engine, plan, price))
        with pytest.raises(InvariantViolation, match="priced_as_charged"):
            INVARIANTS["priced_as_charged"].check(Dispatch(engine, plan, 2.0 * price))
        # The suite-wide instrument is wired: a charge moved by one ulp on
        # the driver side only fails the dispatch.
        stock = Driver.occupancy
        monkeypatch.setattr(
            Driver, "occupancy", lambda self, *a: math.nextafter(stock(self, *a), math.inf)
        )
        with pytest.raises(InvariantViolation, match="priced_as_charged"):
            engine._dispatch(plan)

    def test_exactly_once_fifo_catches_a_reordered_flow(self, good_run):
        order = next(o for o in good_run.untraced.departures.values() if len(o) > 1)
        order.reverse()
        with pytest.raises(InvariantViolation, match="out of order"):
            INVARIANTS["exactly_once_fifo"].check(good_run)

    def test_exactly_once_fifo_catches_a_repeated_completion(self, good_run):
        records = good_run.traced.cluster.metrics.records
        records.append(records[0])
        with pytest.raises(InvariantViolation, match="repeated"):
            INVARIANTS["exactly_once_fifo"].check(good_run)

    def test_exactly_once_fifo_catches_a_completion_after_the_end(self, good_run):
        records = good_run.untraced.cluster.metrics.records
        records[0] = records[0]._replace(complete_time=good_run.untraced.cluster.sim.now + 1)
        with pytest.raises(InvariantViolation, match="run ended at"):
            INVARIANTS["exactly_once_fifo"].check(good_run)

    def test_quiescent_catches_a_half_reassembled_message(self, good_run, monkeypatch):
        reassembler = good_run.untraced.cluster.reassemblers["n1"]
        monkeypatch.setattr(type(reassembler), "incomplete_messages", property(lambda _: 1))
        with pytest.raises(InvariantViolation, match="incomplete_messages"):
            INVARIANTS["quiescent"].check(good_run)

    def test_bytes_conserved_catches_a_dropped_byte(self, good_run):
        records = good_run.untraced.cluster.metrics.records
        records[-1] = records[-1]._replace(size=records[-1].size - 1)
        with pytest.raises(InvariantViolation, match="bytes_conserved"):
            INVARIANTS["bytes_conserved"].check(good_run)

    def test_report_recount_catches_a_miscounted_report(self, good_run):
        report = good_run.untraced.report
        good_run.untraced.report = replace(report, data_packets=report.data_packets + 1)
        with pytest.raises(InvariantViolation, match="data_packets"):
            INVARIANTS["report_recount"].check(good_run)

    def test_quiescent_catches_a_left_armed_hold(self, good_run):
        engine = good_run.traced.cluster.engine("n0")
        engine._arm_hold(engine.sim.now + 1 * us)
        with pytest.raises(InvariantViolation, match="hold_timer_armed"):
            INVARIANTS["quiescent"].check(good_run)

    def test_traced_equals_untraced_catches_a_moved_packet(self, good_run):
        log = good_run.traced.dispatches
        log[0], log[1] = log[1], log[0]
        with pytest.raises(InvariantViolation, match="differ at #0"):
            INVARIANTS["traced_equals_untraced"].check(good_run)

    def test_deterministic_catches_a_different_result(self, good_run):
        records = good_run.traced.cluster.metrics.records
        records[0] = records[0]._replace(complete_time=records[0].complete_time * 2)
        with pytest.raises(InvariantViolation, match="deterministic"):
            INVARIANTS["deterministic"].check(good_run)
