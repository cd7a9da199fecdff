"""Array walk vs oracle: behavioural equivalence.

``src/`` decides packets one way — the array walk of
:mod:`repro.core.kernel` — and these tests are what holds it to the
reference implementation in :mod:`tests.core.oracle` (the entry-object
walk and the naive candidate search it replaced).  Every observable
decision — which entries travel, in which packets, in which order,
after how many candidate evaluations, what gets parked — has to match:

* builder equivalence over randomized mixed windows × every builder
  knob, on all four technologies (hypothesis), plus the stalled-channel
  regression for protocol-only passes;
* search equivalence: same winner, same ``candidates_evaluated``,
  across a (depth × budget) grid;
* whole-run dispatch equivalence on scaled-down E2/E5 workloads and on
  two :class:`~repro.baseline.legacy.LegacyEngine` runs;
* the fold cannot silently diverge: a driver class or a link that would
  make the constants wrong is rejected when defined / constructed.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import legacy
from repro.core.config import EngineConfig
from repro.core.strategies import _builder
from repro.core.strategies.search import BoundedSearchStrategy
from repro.drivers.base import Driver
from repro.drivers.mx import MX_CAPABILITIES, MxDriver
from repro.drivers.registry import DRIVER_TYPES
from repro.madeleine.message import Flow, Message, PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.middleware import GlobalArraysApp, uniform_small_flows
from repro.middleware.mpi_like import StreamApp
from repro.network.model import LinkModel
from repro.network.nic import NIC
from repro.network.technologies import myrinet_mx
from repro.runtime import Cluster, run_session
from repro.sim import Simulator
from repro.util.errors import CapabilityError
from repro.util.units import KiB, us

from tests.core import oracle
from tests.core.helpers import (
    StubEngine,
    control_entry,
    data_entry,
    make_driver,
    plan_signature,
)


# ----------------------------------------------------------------------
# builder equivalence over randomized mixed windows
# ----------------------------------------------------------------------
entry_spec = st.tuples(
    st.integers(min_value=1, max_value=80 * 1024),  # size (crosses every rdv threshold)
    st.integers(min_value=0, max_value=3),  # flow index
    st.sampled_from([PackMode.CHEAPER, PackMode.LATER, PackMode.SAFER]),
    st.booleans(),  # second destination
    # 0 => RDV_REQ, 1 => RDV_ACK, 2 => rendezvous-ready bulk, else plain data
    st.integers(min_value=0, max_value=20),
    st.booleans(),  # another fragment of the flow's previous message
)

build_knobs = st.fixed_dictionaries(
    {
        "max_items": st.integers(min_value=1, max_value=16),
        "skip_seeds": st.integers(min_value=0, max_value=6),
        "same_message_only": st.booleans(),
        "protocol_only": st.booleans(),
    }
)

#: Small windows so most drawn queues reach past the lookahead.
windows = st.sampled_from([2, 5, 16])
technologies = st.sampled_from(sorted(DRIVER_TYPES))


def _load_queue(engine, specs):
    """Fill channel 0 from ``specs``; returns the queue and the entries
    in load order (plans are compared by position in that list)."""
    flows = {
        False: [Flow(i, f"f{i}", "n0", "n1") for i in range(4)],
        True: [Flow(4 + i, f"g{i}", "n0", "n2") for i in range(4)],
    }
    last_message: dict[Flow, Message] = {}
    queue = engine.waiting.queue(0)
    loaded = []
    for size, flow_idx, mode, alt_dst, marker, same_message in specs:
        if marker < 2:
            kind = EntryKind.RDV_REQ if marker == 0 else EntryKind.RDV_ACK
            entry = control_entry(dst="n2" if alt_dst else "n1", kind=kind, token=size)
        else:
            flow = flows[alt_dst][flow_idx]
            if same_message and flow in last_message:
                fragment = last_message[flow].add_fragment(size, mode=mode)
                entry = SubmitEntry(
                    EntryKind.DATA, flow.dst, 0.0, fragment=fragment, flow=flow
                )
            else:
                entry = data_entry(flow, size, mode=mode)
                last_message[flow] = entry.message
            if marker == 2:
                entry.state = EntryState.RDV_READY
        queue.append(entry)
        loaded.append(entry)
    return queue, loaded


def _fresh(specs, tech, window):
    sim = Simulator()
    driver, _ = make_driver(sim, tech=tech)
    engine = StubEngine(
        [driver], sim=sim, config=EngineConfig(lookahead_window=window)
    )
    queue, loaded = _load_queue(engine, specs)
    return engine, driver, queue, loaded


def _positions(plan, loaded):
    """A plan as (kind, dst, meta, ((load position, take), ...))."""
    if plan is None:
        return None
    return (
        plan.kind,
        plan.dst,
        plan.meta,
        tuple((loaded.index(item.entry), item.take) for item in plan.items),
    )


class TestBuilderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        specs=st.lists(entry_spec, min_size=1, max_size=20),
        knobs=build_knobs,
        tech=technologies,
        window=windows,
    )
    def test_array_walk_matches_object_walk(self, specs, knobs, tech, window):
        """Same window, same knobs → identical plan, array vs oracle."""
        engine, driver, queue, loaded = _fresh(specs, tech, window)
        # allow_park=False keeps both walks side-effect free, so they
        # can run over the very same queue back to back.
        fast = _builder.build_from_queue(
            engine, driver, queue, allow_park=False, **knobs
        )
        ref = oracle.build_from_queue(
            engine, driver, queue, allow_park=False, **knobs
        )
        assert _positions(fast, loaded) == _positions(ref, loaded)

    @settings(max_examples=100, deadline=None)
    @given(
        specs=st.lists(entry_spec, min_size=1, max_size=16),
        knobs=build_knobs,
        tech=technologies,
        window=windows,
    )
    def test_parking_decisions_match(self, specs, knobs, tech, window):
        """allow_park=True parks the same entries in the same order and
        leaves the same queue behind."""

        def run(build):
            engine, driver, queue, loaded = _fresh(specs, tech, window)
            plan = build(engine, driver, queue, allow_park=True, **knobs)
            return (
                _positions(plan, loaded),
                [loaded.index(e) for e in engine.parked],
                [loaded.index(e) for e in queue.pending()],
            )

        assert run(_builder.build_from_queue) == run(oracle.build_from_queue)

    @pytest.mark.parametrize(
        "unblocker", ["rdv_req", "rdv_ack", "rdv_ready"]
    )
    def test_protocol_pass_reaches_beyond_window(self, unblocker):
        """The stalled-channel regression: the lookahead window bounds
        optimization, not protocol traffic.  With the entry that would
        unblock a stalled legacy channel sitting behind a data backlog
        deeper than the window, a protocol-only pass must still find it
        — or the channel deadlocks."""
        sim = Simulator()
        driver, _ = make_driver(sim)
        engine = StubEngine([driver], sim=sim, config=EngineConfig(lookahead_window=4))
        queue = engine.waiting.queue(0)
        flow = Flow(0, "f", "n0", "n1")
        for _ in range(12):
            queue.append(data_entry(flow, 64))
        if unblocker == "rdv_ready":
            hidden = data_entry(Flow(1, "bulk", "n0", "n1"), 256 * KiB)
            hidden.state = EntryState.RDV_READY
        else:
            kind = EntryKind.RDV_REQ if unblocker == "rdv_req" else EntryKind.RDV_ACK
            hidden = control_entry("n1", kind=kind, token=7)
        queue.append(hidden)

        for build in (_builder.build_from_queue, oracle.build_from_queue):
            plan = build(
                engine, driver, queue,
                max_items=16, same_message_only=True, protocol_only=True,
            )
            assert plan is not None, f"{build.__module__}: channel would deadlock"
            assert plan.entries == [hidden]
            # An ordinary pass stays window-bounded: data only.
            plan = build(engine, driver, queue, max_items=16)
            assert hidden not in plan.entries and len(plan.items) == 4


# ----------------------------------------------------------------------
# search equivalence: winner + budget accounting across depths/budgets
# ----------------------------------------------------------------------
def _loaded_search_engine(strategy_type, depth, budget, sizes=None):
    holder = []

    def factory():
        strategy = strategy_type(budget=budget)
        holder.append(strategy)
        return strategy

    cluster = Cluster(
        seed=0, strategy=factory, config=EngineConfig(lookahead_window=32)
    )
    engine = cluster.engine("n0")
    flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(8)]
    for i in range(depth):
        size = 256 if sizes is None else sizes[i % len(sizes)]
        engine._enqueue(data_entry(flows[i % 8], size))
    return engine, holder[0]


class TestSearchBudgetEquivalence:
    @pytest.mark.parametrize("depth", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("budget", [1, 3, 8, 64])
    def test_winner_and_evaluations_match(self, depth, budget):
        """Batched and oracle search agree on the winning plan and on
        exactly how many candidates the budget bought, at every
        (depth, budget) corner — including budgets that truncate
        mid-seed and depths that exhaust before the budget does."""
        sizes = [64, 256, 1024, 4096, 96, 513]  # mixed, all eager-sized
        outcomes = []
        for strategy_type in (BoundedSearchStrategy, oracle.OracleSearchStrategy):
            engine, strategy = _loaded_search_engine(
                strategy_type, depth, budget, sizes
            )
            plan = strategy.make_plan(engine, engine.drivers[0])
            outcomes.append((plan_signature(plan), strategy.last_evaluated))
        assert outcomes[0] == outcomes[1]

    def test_accounting_accumulates_identically(self):
        """candidates_evaluated over a run of decisions, not just one."""

        def total(strategy_type):
            engine, strategy = _loaded_search_engine(
                strategy_type, 64, 16, [128, 700, 2048]
            )
            driver = engine.drivers[0]
            totals = []
            for _ in range(5):
                strategy.make_plan(engine, driver)
                for queue in engine.waiting.non_empty():
                    queue.invalidate_caches()
                totals.append(strategy.candidates_evaluated)
            return totals

        assert total(BoundedSearchStrategy) == total(oracle.OracleSearchStrategy)

    def test_rendezvous_sweep_and_mixed_windows_match(self):
        """Non-uniform windows (oversized entries the up-front sweep
        parks, a SAFER fragment, two destinations) take the per-seed
        path; winner, accounting and parked set still agree."""

        def run(strategy_type):
            engine, strategy = _loaded_search_engine(strategy_type, 0, 24)
            flows = [Flow(i, f"f{i}", "n0", "n1") for i in range(3)]
            sizes = [300, 48 * KiB, 700, 64, 40 * KiB, 1500, 90, 2048]
            for i, size in enumerate(sizes):
                mode = PackMode.SAFER if i == 3 else PackMode.CHEAPER
                engine._enqueue(data_entry(flows[i % 3], size, mode=mode))
            plan = strategy.make_plan(engine, engine.drivers[0])
            return (
                plan_signature(plan),
                strategy.last_evaluated,
                engine.stats.rdv_parked,
            )

        assert run(BoundedSearchStrategy) == run(oracle.OracleSearchStrategy)


# ----------------------------------------------------------------------
# whole-run dispatch order: scaled-down E2 / E5 workloads
# ----------------------------------------------------------------------
def _record_dispatches(cluster):
    """Wrap every engine's strategy: ordered log of dispatched plans."""
    log = []
    for name in cluster.node_names:
        engine = cluster.engine(name)
        strategy = getattr(engine, "strategy", None)
        if strategy is None:
            continue
        real = strategy.make_plan

        def recording(engine_, driver_, _real=real, _node=name):
            plan = _real(engine_, driver_)
            if plan is not None and hasattr(plan, "items"):
                log.append((_node, plan_signature(plan)))
            return plan

        strategy.make_plan = recording
    return log


def _run_e2_like():
    cluster = Cluster(seed=102)
    log = _record_dispatches(cluster)
    apps = uniform_small_flows(4, size=256, count=40, interval=1 * us)
    run_session(cluster, [a.install for a in apps])
    return log


def _run_e5_like(strategy_type, budget):
    cluster = Cluster(
        n_nodes=3,
        seed=5,
        strategy=lambda: strategy_type(budget=budget),
    )
    log = _record_dispatches(cluster)
    apps = [
        StreamApp(
            "n0",
            "n1" if i % 2 == 0 else "n2",
            size=256 * (1 + i),
            count=30,
            interval=2 * us,
            size_sigma=0.8,
            name=f"s{i}",
        )
        for i in range(4)
    ]
    run_session(cluster, [a.install for a in apps])
    return log


class TestDispatchOrderEquivalence:
    def test_e2_dispatch_order_identical(self, monkeypatch):
        production = _run_e2_like()
        assert production, "workload produced no dispatches"
        oracle.use_object_walk(monkeypatch)
        assert production == _run_e2_like()

    @pytest.mark.parametrize("budget", [1, 8, 64])
    def test_e5_dispatch_order_identical(self, budget):
        production = _run_e5_like(BoundedSearchStrategy, budget)
        assert production, "workload produced no dispatches"
        assert production == _run_e5_like(oracle.OracleSearchStrategy, budget)


# ----------------------------------------------------------------------
# whole-run legacy equivalence: the baseline's two flags on the arrays
# ----------------------------------------------------------------------
def _record_engine_dispatches(cluster):
    """``(time, nic, kind, items, bytes)`` of every packet dispatched."""
    log = []
    for name in cluster.node_names:
        engine = cluster.engine(name)
        real = engine._dispatch

        def recording(plan, _real=real, _sim=cluster.sim):
            log.append(
                (
                    _sim.now,
                    plan.driver.name,
                    plan.kind.value,
                    len(plan.items),
                    plan.payload_bytes,
                )
            )
            _real(plan)

        engine._dispatch = recording
    return log


def _run_legacy_e2():
    """E2's legacy arm: 8 small flows over one ``mx`` rail."""
    cluster = Cluster(engine="legacy", seed=108)
    log = _record_engine_dispatches(cluster)
    apps = uniform_small_flows(8, size=256, count=40, interval=1 * us)
    run_session(cluster, [a.install for a in apps])
    return log


def _run_legacy_rendezvous_mix():
    """Eager, tiny and rendezvous-sized streams plus one-sided put/get
    over three rails: channels stall behind rendezvous and are served
    protocol-only while data keeps queueing behind them.  The ``spread``
    stream mixes both sizes in one flow, fast: its bulk data comes back
    rendezvous-ready behind more than a window of backlog (18 of the 25
    protocol packets of this run are found beyond the lookahead)."""
    cluster = Cluster(engine="legacy", networks=[("mx", 2), ("elan", 1)], seed=11)
    log = _record_engine_dispatches(cluster)
    apps = [
        StreamApp("n0", "n1", size=25 * KiB, count=12, interval=3 * us, name="mid"),
        StreamApp("n0", "n1", size=64, count=60, interval=1 * us, name="tiny"),
        StreamApp("n0", "n1", size=80 * KiB, count=6, interval=20 * us, name="bulk"),
        StreamApp(
            "n0", "n1", size=12 * KiB, count=120, interval=0.5 * us,
            size_sigma=1.0, name="spread",
        ),
        GlobalArraysApp(operations=40, name="putget"),
    ]
    run_session(cluster, [a.install for a in apps])
    return log


class TestLegacyRunEquivalence:
    @pytest.mark.parametrize(
        "run", [_run_legacy_e2, _run_legacy_rendezvous_mix], ids=["e2", "rdv_mix"]
    )
    def test_legacy_dispatch_log_identical(self, run, monkeypatch):
        """``LegacyStrategy`` building through the production entry or
        through the oracle puts the identical packets on the identical
        rails at the identical instants."""
        production = run()
        assert production, "workload produced no dispatches"
        if run is _run_legacy_rendezvous_mix:
            kinds = {kind for _, _, kind, _, _ in production}
            assert {"rdv_req", "rdv_data"} <= kinds, "mix exercised no rendezvous"
        monkeypatch.setattr(legacy, "build_from_queue", oracle.build_from_queue)
        assert production == run()


# ----------------------------------------------------------------------
# the fold cannot silently diverge from the driver or the link
# ----------------------------------------------------------------------
class TestFoldCannotDiverge:
    @pytest.mark.parametrize(
        "method",
        [
            "choose_mode",
            "wants_rendezvous",
            "choose_aggregation",
            "occupancy",
            "max_segments_per_packet",
        ],
    )
    @pytest.mark.parametrize("base", [Driver, MxDriver])
    def test_folded_method_override_rejected_at_class_creation(self, base, method):
        """The decision reads constants, not these methods: a subclass
        redefining one — even to the stock behaviour — is refused when
        the class statement runs, naming the method."""
        stock = getattr(Driver, method)
        with pytest.raises(TypeError, match=method):
            type("Overriding", (base,), {method: lambda self, *a: stock(self, *a)})

    def test_link_overriding_sender_occupancy_rejected_at_construction(self):
        class PessimisticLink(LinkModel):
            def sender_occupancy(self, size, mode, **kwargs):
                return 2.0 * LinkModel.sender_occupancy(self, size, mode, **kwargs)

        link = PessimisticLink(**dataclasses.asdict(myrinet_mx()))
        nic = NIC(Simulator(), "mx0", "n0", link, lambda packet, occupancy: None)
        with pytest.raises(CapabilityError, match="sender_occupancy"):
            MxDriver(nic)

    def test_capability_profiles_and_link_parameters_are_the_extension(self):
        """What stays allowed: a subclass that only picks capabilities,
        and a link that only changes parameters."""

        class TinyEagerMx(MxDriver):
            def __init__(self, nic):
                super().__init__(
                    nic,
                    dataclasses.replace(
                        MX_CAPABILITIES, eager_threshold=1 * KiB, pio_threshold=128
                    ),
                )

        stock = myrinet_mx()
        link = dataclasses.replace(stock, pio_latency=stock.pio_latency * 2)
        nic = NIC(Simulator(), "mx0", "n0", link, lambda packet, occupancy: None)
        driver = TinyEagerMx(nic)
        assert driver.wants_rendezvous(1 * KiB + 1) and not driver.wants_rendezvous(1 * KiB)
        assert driver.constants.pio_limit <= 128
        assert driver.constants.startup_pio == stock.pio_latency * 2
