"""The standing hold answers submits exactly as a full pump would.

``OptimizingEngine._after_submit`` answers a submit from the Hold the
last pump ended in instead of re-planning (``core/engine.py``).  The
shadow engine here drops that hold before every submit, so it always
re-decides — the behaviour before the shortcut existed.  Both engines
are driven with the same schedule and must put the same packets on the
same rails at the same instants, count the same holds / activations /
dispatches / parked rendezvous, and keep the same hold timer armed.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveChannels
from repro.core.channels import OneToOneChannels, PooledChannels
from repro.core.config import EngineConfig
from repro.core.engine import OptimizingEngine
from repro.core.plan import Hold
from repro.core.strategies import AutoStrategy, NagleStrategy
from repro.drivers.elan import ELAN_CAPABILITIES
from repro.madeleine.message import PackMode
from repro.network.virtual import TrafficClass
from repro.runtime import Cluster
from repro.runtime import cluster as cluster_module
from repro.util.units import KiB, us

DELAY = 6 * us
MIN_BYTES = 2 * KiB
DEEP = 5
#: The elan rail parks (and cuts packets) above 1 KiB — below
#: ``MIN_BYTES``, so a held backlog can hold an entry one rail would
#: rather negotiate.
ELAN_RDV = 1 * KiB


class AlwaysRedecide(OptimizingEngine):
    """The engine without the shortcut: every submit is a full pump."""

    def _after_submit(self) -> None:
        self._standing = None
        super()._after_submit()


def make_cluster(
    shadow: bool, strategy=None, policy=None, networks=None, rail_binding="pooled"
) -> Cluster:
    kinds = dict(cluster_module._ENGINE_KINDS)
    if shadow:
        kinds["optimizing"] = AlwaysRedecide
    with mock.patch.dict(cluster_module._ENGINE_KINDS, kinds):
        return Cluster(
            networks=networks or [("mx", 1), ("elan", 1)],
            strategy=strategy
            or (lambda: AutoStrategy(DEEP, hold_delay=DELAY, hold_min_bytes=MIN_BYTES)),
            policy=policy or (lambda: AdaptiveChannels(promote_bytes=4 * KiB, window_dispatches=4)),
            config=EngineConfig(
                rdv_timeout=40 * us, rdv_requires_recv=True, rail_binding=rail_binding
            ),
            driver_caps={
                "elan": replace(
                    ELAN_CAPABILITIES, eager_threshold=ELAN_RDV, max_aggregate_size=ELAN_RDV
                )
            },
            seed=1,
        )


def observe(cluster: Cluster) -> list:
    """Log every dispatch, with the engine's counters and armed wake."""
    log: list = []
    for name, engine in cluster.engines.items():
        real = engine._dispatch

        def recording(plan, _real=real, _engine=engine, _name=name):
            stats = _engine.stats
            log.append(
                (
                    cluster.sim.now,
                    _name,
                    plan.driver.name,
                    plan.kind.value,
                    [(item.entry.flow_id, item.take) for item in plan.items],
                    (stats.holds, dict(stats.activations), stats.rdv_parked),
                    _engine._hold_wake,
                )
            )
            _real(plan)

        engine._dispatch = recording
    return log


def snapshot(cluster: Cluster) -> list:
    return [
        (
            name,
            engine.stats.holds,
            dict(engine.stats.activations),
            engine.stats.dispatches,
            engine.stats.rdv_parked,
            engine.stats.rdv_timeouts,
            engine._hold_wake,
            engine.hold_timer_armed,
            engine.backlog,
        )
        for name, engine in cluster.engines.items()
    ]


#: Mostly small and close together — what a hold is made of — with
#: sizes on either side of every threshold a release depends on.
SMALL = [1, 8, 64, 200]
SIZES = st.sampled_from(
    SMALL * 4
    + [700, ELAN_RDV - 16, ELAN_RDV, ELAN_RDV + 1, MIN_BYTES - 17, MIN_BYTES,
       MIN_BYTES + 1, 32 * KiB - 16, 32 * KiB + 1, 40 * KiB, 100 * KiB]
)
GAPS = st.sampled_from(
    [0.0, 0.5 * us, 1 * us] * 3 + [2.5 * us, DELAY, DELAY + 1 * us, 15 * us, 60 * us]
)
OPS = st.one_of(
    st.tuples(
        st.just("send"),
        st.integers(min_value=0, max_value=5),  # flow
        SIZES,
        st.sampled_from(list(PackMode)),
        st.sampled_from([0, 0, 16]),  # express header
    ),
    *[st.tuples(st.just("send"), st.integers(min_value=0, max_value=5),
                st.sampled_from(SMALL), st.just(PackMode.CHEAPER), st.just(0))] * 3,
    st.tuples(st.just("post"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("recover"), st.integers(min_value=0, max_value=1)),
)
SCHEDULES = st.lists(st.tuples(GAPS, OPS), min_size=4, max_size=40)

#: (source node, traffic class) of the six flows a schedule names.
FLOWS = [
    ("n0", TrafficClass.DEFAULT),
    ("n0", TrafficClass.DEFAULT),
    ("n0", TrafficClass.CONTROL),
    ("n0", TrafficClass.BULK),
    ("n0", TrafficClass.PUTGET),
    ("n1", TrafficClass.DEFAULT),
]


def run_schedule(schedule, shadow: bool, prepare=None, **cluster_kwargs):
    """Every step is scheduled up front, so a submit that falls on a
    hold's ``wake_at`` runs *before* the timer armed later for it.
    ``prepare(cluster)`` may instrument the cluster before it runs."""
    cluster = make_cluster(shadow, **cluster_kwargs)
    log = observe(cluster)
    if prepare is not None:
        prepare(cluster)
    steps: list = []
    flows = []
    for src, traffic_class in FLOWS:
        dst = "n1" if src == "n0" else "n0"
        flows.append((cluster.api(src), cluster.api(dst),
                      cluster.api(src).open_flow(dst, traffic_class=traffic_class)))

    def step(op):
        if op[0] == "send":
            _, index, size, mode, header = op
            api, _, flow = flows[index]
            if size > ELAN_RDV and mode is PackMode.SAFER:
                # A SAFER fragment whose handshake times out is sent
                # whole, past ``max_aggregate_size``, and fails plan
                # validation — at the parent commit too; not this test's.
                mode = PackMode.CHEAPER
            api.send(flow, size, header_size=header, mode=mode)
        elif op[0] == "post":
            _, receiver, flow = flows[op[1]]
            receiver.post_receive(flow)
        else:
            nic = cluster.nodes[0].nics[op[1]]
            nic.fail() if op[0] == "fail" else nic.recover()
        steps.append(snapshot(cluster))

    when = 0.0
    for gap, op in schedule:
        when += gap
        cluster.sim.at(when, step, op)
    cluster.run_until_idle()
    return log, steps, snapshot(cluster), cluster


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SCHEDULES, st.sampled_from(["pooled", "static"]), st.sampled_from([None, PooledChannels]))
def test_standing_hold_decides_like_a_full_pump(schedule, rail_binding, policy):
    """``policy`` None is ``adaptive`` (handshakes share the data queue);
    under ``pooled`` CONTROL entries have a channel of their own."""
    kwargs = {"rail_binding": rail_binding, "policy": policy}
    assert (
        run_schedule(schedule, shadow=False, **kwargs)[:3]
        == run_schedule(schedule, shadow=True, **kwargs)[:3]
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SCHEDULES)
def test_plain_nagle_decides_like_a_full_pump(schedule):
    kwargs = {"strategy": lambda: NagleStrategy(delay=DELAY, min_bytes=MIN_BYTES)}
    assert (
        run_schedule(schedule, shadow=False, **kwargs)[:3]
        == run_schedule(schedule, shadow=True, **kwargs)[:3]
    )


# ----------------------------------------------------------------------
# one named case per way out of a standing hold
# ----------------------------------------------------------------------
def send(index, size, mode=PackMode.CHEAPER):
    return ("send", index, size, mode, 0)


def both(schedule, **kwargs):
    """Run on both engines, require equality, return the real run."""
    real = run_schedule(schedule, shadow=False, **kwargs)
    assert real[:3] == run_schedule(schedule, shadow=True, **kwargs)[:3]
    return real


def consultations(schedule, **kwargs) -> tuple[int, int]:
    """``make_plan`` calls on n0: (with the standing hold, without)."""
    counts = []
    for shadow in (False, True):
        calls = []

        def count_calls(cluster, _calls=calls):
            strategy = cluster.engine("n0").strategy
            real = strategy.make_plan
            strategy.make_plan = lambda e, d: (_calls.append(d.name), real(e, d))[1]

        run_schedule(schedule, shadow, prepare=count_calls, **kwargs)
        counts.append(len(calls))
    return counts[0], counts[1]


class TestRelease:
    def test_held_submits_are_not_replanned(self):
        """Three small submits inside one hold: the first is decided on
        both rails, the next two are answered; the timer sends all."""
        schedule = [(0.0, send(0, 64)), (1 * us, send(0, 64)), (1 * us, send(0, 64))]
        log, steps, final, cluster = both(schedule)
        stats = cluster.engine("n0").stats
        assert stats.holds == 6 and stats.activations["submit"] == 3
        assert [len(items) for _, node, _, _, items, _, _ in log if node == "n0"] == [3]
        assert log[0][0] == DELAY
        real, shadow = consultations(schedule)
        assert shadow - real == 4  # two rails, two answered submits

    def test_bytes_cross(self):
        """The submit that takes the backlog to ``min_bytes`` is decided
        in full and leaves at once."""
        log, *_ = both([(0.0, send(0, 64)), (1 * us, send(0, 700)), (1 * us, send(0, MIN_BYTES))])
        assert log[0][0] == 2 * us

    def test_backlog_reaches_deep(self):
        """``auto`` flips to plain aggregation at ``deep_backlog``."""
        log, *_ = both([(0.0, send(0, 8))] + [(0.5 * us, send(0, 8))] * (DEEP - 1))
        assert log[0][0] == (DEEP - 1) * 0.5 * us
        assert len(log[0][4]) == DEEP

    def test_oversized_entry(self):
        """An entry one rail parks for rendezvous ends the hold even
        though it is smaller than ``min_bytes``."""
        _, steps, _, _ = both(
            [(0.0, send(0, 64)), (1 * us, send(0, ELAN_RDV + 1)), (30 * us, ("post", 0))]
        )
        assert 64 + ELAN_RDV + 1 < MIN_BYTES
        parked = [step[0][4] for step in steps]
        assert parked == [0, 1, 1]  # parked by the submit's own pump

    def test_parked_behind_a_held_entry(self):
        """``pooled``: the held walk itself parks the entry behind the
        small one, and the handshake waits in the CONTROL channel.  No
        hold stands over it — the next submit's pump sends it at once."""
        log, steps, _, cluster = both(
            [(0.0, send(0, 64)), (1 * us, send(0, ELAN_RDV + 1)), (1 * us, send(0, 64)),
             (30 * us, ("post", 0))],
            policy=PooledChannels,
        )
        assert [step[0][4] for step in steps[:3]] == [0, 1, 1]
        assert [(at, kind) for at, node, _, kind, *_ in log if node == "n0"][0] == (
            2 * us, "rdv_req"
        )

    def test_submit_at_exactly_wake_at(self):
        """At ``wake_at`` the hold is over, whichever of the submit and
        the timer the event queue runs first."""
        log, _, _, cluster = both([(0.0, send(0, 64)), (DELAY, send(0, 64))])
        assert log[0][0] == DELAY and len(log[0][4]) == 2
        assert cluster.engine("n0").stats.activations["submit"] == 2

    def test_kick_while_held(self):
        """A rail failure re-decides: the survivor is asked alone, and
        later submits are answered for one rail, not two."""
        log, steps, _, cluster = both(
            [(0.0, send(0, 64)), (1 * us, ("fail", 1)), (1 * us, send(0, 64)), (1 * us, send(0, 64))]
        )
        holds = [step[0][1] for step in steps]
        assert holds == [2, 3, 4, 5]
        assert {nic for _, node, nic, *_ in log if node == "n0"} == {"n0.mx00"}

    def test_every_held_rail_fails(self):
        """The only held rail goes down while the other is busy: nothing
        is idle, so later submits are not activations at all."""
        _, steps, _, _ = both(
            [(0.0, send(0, 30 * KiB)), (1 * us, send(0, 64)), (1 * us, ("fail", 1)),
             (1 * us, send(0, 64))]
        )
        assert [(step[0][1], step[0][2]["submit"]) for step in steps] == [
            (0, 1), (1, 2), (1, 2), (1, 2)
        ]

    def test_a_rail_that_declined_may_hold_later(self):
        """Static binding: the rail with no channel of its own declines,
        so no hold stands, and its first entry is decided in full."""
        kwargs = {"policy": PooledChannels, "rail_binding": "static"}
        _, steps, _, _ = both(
            [(0.0, send(0, 64)), (1 * us, send(4, 64)), (1 * us, send(0, 64))], **kwargs
        )
        assert [step[0][1] for step in steps] == [1, 3, 5]

    def test_hold_on_one_rail_dispatch_on_the_other(self):
        """A pump that sent something leaves no standing hold, so the
        next submit is decided in full."""
        cluster = make_cluster(shadow=False)
        engine = cluster.engine("n0")
        mx, elan = engine.drivers
        small = Hold(50 * us, MIN_BYTES, DEEP)
        real = engine.strategy.make_plan
        engine.strategy.make_plan = lambda e, d: small if d is mx else real(e, d)
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        api.send(flow, 4 * KiB, header_size=0)  # elan sends it, mx holds
        assert engine.stats.dispatches == 1 and engine.stats.holds == 1
        assert engine._standing is None
        engine.strategy.make_plan = lambda e, d: small
        api.send(flow, 64, header_size=0)
        assert engine._standing is not None and engine._standing[2] == 1

    def test_counting_policy_is_always_asked(self):
        """``one-to-one`` rotates its service order per call, so under it
        no submit may be answered without the calls a pump makes."""
        schedule = [(0.0, send(0, 64)), (1 * us, send(0, 64)), (1 * us, send(0, 64))]
        kwargs = {"policy": OneToOneChannels}
        both(schedule, **kwargs)
        real, shadow = consultations(schedule, **kwargs)
        assert real == shadow

    def test_selector_installed_under_a_hold_orders_the_next_submit(self):
        """The tuner may install a rail selector while a hold stands; it
        counts the pumps it orders, so none is answered without it."""
        cluster = make_cluster(shadow=False)
        engine = cluster.engine("n0")
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        api.send(flow, 64, header_size=0)
        assert engine._standing is not None
        orders = []
        engine.rail_selector = mock.Mock(order=lambda d: (orders.append(1), d)[1])
        api.send(flow, 64, header_size=0)
        api.send(flow, 64, header_size=0)
        assert len(orders) == 2 and engine.stats.holds == 6

    def test_default_hold_is_always_reasked(self):
        """A strategy that fills no release condition is asked on every
        submit, as before."""
        cluster = make_cluster(shadow=False, networks=[("mx", 1)])
        engine = cluster.engine("n0")
        calls = []
        engine.strategy.make_plan = lambda e, d: (calls.append(1), Hold(1.0))[1]
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(3):
            api.send(flow, 64, header_size=0)
        assert len(calls) == 3 and engine.stats.holds == 3
