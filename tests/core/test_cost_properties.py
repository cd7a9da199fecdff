"""Property tests for the cost model: monotonicity, positivity, the
three-way drift guard pinning ``score`` == ``breakdown`` == the batched
kernel's packed scorer (dispatch order rides on exact float equality) on
every technology, and the driver's folded constants against a
brute-force reading of its capabilities and link."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.plan import PlanItem, TransferPlan
from repro.drivers.registry import DRIVER_TYPES
from repro.madeleine.message import Flow
from repro.network.model import TransferMode
from repro.network.wire import PacketKind
from repro.sim import Simulator
from repro.util.units import KiB

from tests.core.helpers import data_entry, make_driver


def plan_of_sizes(driver, sizes, submit_time=0.0):
    flow = Flow(0, "f", "n0", "n1")
    items = [PlanItem(data_entry(flow, s, submit_time=submit_time), s) for s in sizes]
    return TransferPlan(driver, PacketKind.EAGER, "n1", 0, items)


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=4 * KiB), min_size=1, max_size=12
)


class TestCostProperties:
    @settings(max_examples=80, deadline=None)
    @given(sizes=sizes_strategy)
    def test_occupancy_positive(self, sizes):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        assert CostModel().occupancy(plan) > 0

    @settings(max_examples=80, deadline=None)
    @given(sizes=sizes_strategy)
    def test_score_positive(self, sizes):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        assert CostModel().score(plan, now=0.0) > 0

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=sizes_strategy,
        extra=st.integers(min_value=1, max_value=4 * KiB),
    )
    def test_occupancy_monotone_in_payload(self, sizes, extra):
        """Adding a segment never makes the packet cheaper to send."""
        driver, _ = make_driver(Simulator())
        small = plan_of_sizes(driver, sizes)
        large = plan_of_sizes(driver, sizes + [extra])
        model = CostModel()
        assert model.occupancy(large) > model.occupancy(small)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=sizes_strategy,
        dt=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    def test_score_nondecreasing_in_staleness(self, sizes, dt):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes, submit_time=0.0)
        model = CostModel()
        assert model.score(plan, now=dt) >= model.score(plan, now=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sizes=sizes_strategy)
    def test_staleness_boost_bounded(self, sizes):
        """A stale plan scores at most 2x its fresh self."""
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes, submit_time=0.0)
        model = CostModel()
        fresh = model.score(plan, now=0.0)
        ancient = model.score(plan, now=1e6)
        assert ancient <= 2.0 * fresh + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=sizes_strategy,
        now=st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
    )
    def test_breakdown_score_matches_score(self, sizes, now):
        """breakdown() repeats the score arithmetic; the two must never
        drift apart — not even in the last bit."""
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        model = CostModel()
        assert model.breakdown(plan, now)["score"] == model.score(plan, now)

    @settings(max_examples=80, deadline=None)
    @given(
        tech=st.sampled_from(sorted(DRIVER_TYPES)),
        # 1 B .. 16 KiB × up to 40 segments: straddles every PIO limit
        # (154 B .. 256 B) and every gather-entry bound (16 / 30 / 32).
        sizes=st.lists(
            st.integers(min_value=1, max_value=16 * KiB), min_size=1, max_size=40
        ),
        submits=st.lists(
            st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        now=st.floats(min_value=0.0, max_value=2e-2, allow_nan=False),
    )
    def test_packed_score_matches_scalar(self, tech, sizes, submits, now):
        """The batched kernel's packed scorer reproduces CostModel.score
        bit for bit from (n_items, payload, oldest_submit) aggregates —
        the invariant the whole batched search's dispatch-order
        equivalence rests on — on all four technologies (``tcp`` is the
        DMA-only / no-gather / no-rendezvous corner the fold pins with
        ``-inf`` / ``None``).  The scalar side reaches the link through
        ``Driver.occupancy`` → ``LinkModel.sender_occupancy``; the
        packed side writes that arithmetic out.  Submit times vary per
        item, so the ``now - min(submit)`` vs ``max(now - submit)``
        equivalence is exercised too (including negative waits: *now*
        may precede a submit time)."""
        driver, _ = make_driver(Simulator(), tech=tech)
        flow = Flow(0, "f", "n0", "n1")
        items = [
            PlanItem(data_entry(flow, s, submit_time=submits[i % len(submits)]), s)
            for i, s in enumerate(sizes)
        ]
        plan = TransferPlan(driver, PacketKind.EAGER, "n1", 0, items)
        model = CostModel()
        packed = model.score_packed(
            driver.constants,
            len(items),
            plan.payload_bytes,
            min(item.entry.submit_time for item in items),
            now,
        )
        assert packed == model.score(plan, now)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        size=st.integers(min_value=32, max_value=2 * KiB),
    )
    def test_aggregate_beats_singles(self, n, size):
        """One n-segment packet always out-scores its single pieces —
        the property the search strategy's correctness rides on."""
        driver, _ = make_driver(Simulator())
        model = CostModel()
        aggregate = model.score(plan_of_sizes(driver, [size] * n), now=0.0)
        single = model.score(plan_of_sizes(driver, [size]), now=0.0)
        assert aggregate > single


# ----------------------------------------------------------------------
# the fold, against the capabilities and link it was folded from
# ----------------------------------------------------------------------
def _straddle(*points):
    """Integer payloads on both sides of each finite threshold."""
    out = {0, 1}
    for point in points:
        if point is not None and math.isfinite(point):
            base = math.floor(point)
            out.update(range(max(base - 2, 0), base + 4))
    return sorted(out)


@pytest.mark.parametrize("tech", sorted(DRIVER_TYPES))
class TestFoldMatchesCapabilities:
    """``Driver`` answers from ``driver.constants``.  These sweeps read
    the same answers off ``caps`` + link the long way, so a wrong fold
    (and with it a wrong array walk *and* a wrong oracle, which asks the
    driver) cannot hide."""

    def test_choose_mode(self, tech):
        driver, _ = make_driver(Simulator(), tech=tech)
        caps, link = driver.caps, driver.nic.link
        for payload in _straddle(
            caps.pio_threshold, link.pio_dma_crossover(), caps.eager_threshold
        ):
            pio = link.pio_latency + payload / link.pio_bandwidth
            dma = link.dma_latency + payload / link.dma_bandwidth
            if caps.supports_pio and caps.supports_dma and math.isclose(
                pio, dma, rel_tol=1e-12
            ):
                continue  # on the crossover either mode is right
            if not caps.supports_pio:
                expected = TransferMode.DMA
            elif not caps.supports_dma:
                expected = TransferMode.PIO
            elif payload <= caps.pio_threshold and pio < dma:
                expected = TransferMode.PIO
            else:
                expected = TransferMode.DMA
            assert driver.choose_mode(payload) is expected, payload

    def test_wants_rendezvous(self, tech):
        driver, _ = make_driver(Simulator(), tech=tech)
        caps = driver.caps
        for payload in _straddle(caps.eager_threshold, caps.max_aggregate_size):
            expected = caps.supports_rdv and payload > caps.eager_threshold
            assert driver.wants_rendezvous(payload) is expected, payload
        if not caps.supports_rdv:
            assert driver.constants.rdv_threshold is None

    def test_choose_aggregation(self, tech):
        driver, _ = make_driver(Simulator(), tech=tech)
        caps, link = driver.caps, driver.nic.link
        bound = caps.max_gather_entries
        for n in sorted({1, 2, 3, max(bound - 1, 1), bound, bound + 1, 64}):
            for size in (1, 64, 1 * KiB, 8 * KiB):
                total = n * size
                gathers = (
                    n > 1
                    and caps.supports_gather
                    and n <= bound
                    and (n - 1) * link.gather_entry_cost < total / link.copy_bandwidth
                )
                choice = driver.choose_aggregation([size] * n)
                expected = (0, n) if gathers else (0 if n == 1 else total, 1)
                assert (choice.copied_bytes, choice.gather_entries) == expected, (n, size)
        assert driver.max_segments_per_packet() == max(bound, 64)
