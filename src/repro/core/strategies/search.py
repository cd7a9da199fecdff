"""The ``search`` strategy: bounded rearrangement search.

The paper's §4 announces the need "to bound the number of data
rearrangements the optimizer has to evaluate so as to determine the best
combination of optimization techniques".  This strategy makes the bound
explicit: it evaluates up to ``search_budget`` candidate plans (greedy
builds started from different seed entries of different channel queues,
with different aggregation widths), scores each with the
:class:`~repro.core.cost.CostModel`, and dispatches the best.

``search_budget = 1`` degenerates to the plain greedy aggregation plan;
the E5 experiment sweeps the budget to show the gain-vs-cost plateau.

Hot-path structure (one decision stays O(window), not O(backlog)):

* candidates are generated and scored over the queue's **flat-array
  mirror** (:meth:`~repro.core.waiting.ChannelQueue.pending_arrays`)
  with the driver's cost constants folded out of the loop — see
  :mod:`repro.core.kernel`.  A candidate only becomes a
  :class:`~repro.core.plan.TransferPlan` object if it *wins*; losing
  (seed, width) combinations are scored from prefix aggregates and
  discarded as plain floats;
* per seed, only the **widest** candidate is built; narrower widths are
  prefixes of it (a greedy walk stopped at *k* items takes exactly the
  first *k* items of the wider walk, and stopping early cannot change
  any earlier take/skip decision), so two of three builds disappear;
* within one seed, a width that truncates to the item count just
  scored (a control packet, a lone SAFER fragment, a two-entry queue)
  is charged to the budget and skipped: the same plan cannot beat its
  own score under the strict ``>`` that picks the winner.

Budget accounting is unchanged from the naive enumeration — each
(seed, width) candidate costs one evaluation whether it was built,
derived, or score-only — so a given budget explores exactly the same
candidates, and the packed scorer reproduces the scalar model's floats
bit for bit, so the same candidate wins.  The naive enumeration itself
(one object-walk build and one scalar score per candidate) is kept as
the oracle in ``tests/core/oracle.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import kernel
from repro.core.plan import Hold, TransferPlan
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["BoundedSearchStrategy"]


@register_strategy("search")
class BoundedSearchStrategy(Strategy):
    """Best-of-K legal rearrangements, scored by the cost model."""

    def __init__(self, budget: int | None = None) -> None:
        #: Optional override of ``EngineConfig.search_budget``.
        self.budget = budget
        #: Candidates evaluated over the strategy's lifetime (the
        #: kernel benchmarks and budget-accounting tests read this).
        self.candidates_evaluated = 0
        #: Candidates evaluated by the most recent ``make_plan`` call.
        self.last_evaluated = 0
        self._last_explain: dict | None = None

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        budget = self.budget if self.budget is not None else engine.config.search_budget
        queues = engine.queues_for(driver)
        consts = driver.constants
        config = engine.config
        window_limit = config.lookahead_window
        stripe_chunk = config.stripe_chunk
        multirail = len(engine.drivers) > 1
        cost = engine.cost

        # Rendezvous parking is a protocol action, not a rearrangement;
        # do it once up front so candidate generation has no side
        # effects.  The sweep runs over the array mirror: cheap integer
        # compares instead of per-entry capability calls.
        for queue in queues:
            arrays = queue.pending_arrays(window_limit)
            if arrays.n:
                for i in kernel.oversized_waiting_indices(arrays, consts):
                    engine.park_for_rendezvous(arrays.entries[i], queue.channel_id)

        now = engine.sim.now
        best_plan: TransferPlan | None = None
        best_score = float("-inf")
        best_build = None  # the winning SeedBuild awaiting materialization
        best_seed: tuple | None = None  # (arrays, channel, seed) of the winner
        best_n = 0
        widest_seen = 0
        evaluated = 0
        out_of_budget = False
        explain = engine.sim.tracer.enabled
        full_width = consts.max_items_cap
        widths = self._widths(full_width)
        SeedBuild = kernel.SeedBuild
        score_packed = cost.score_packed
        for queue in queues:
            # One array mirror per queue (rebuilt only if the park
            # sweep above mutated it), shared by every seed build.
            arrays = queue.pending_arrays(window_limit)
            channel_id = queue.channel_id

            # Uniform-window queues (the loaded steady state) are
            # probed in one pass: per-seed aggregates straight off the
            # arrays, no builder call and no plan object per candidate.
            # Every other window is built seed by seed.  Budget
            # accounting is the same either way — the equivalence tests
            # hold the two sources together.
            # Its number: +675 py_ops_per_msg on sim_storm without the probe.
            stats = kernel.probe_uniform_seeds(
                arrays, consts, full_width, widths, budget - evaluated
            )
            probed = stats is not None
            build = None  # this seed's SeedBuild (per-seed builds only)
            for seed in range(len(stats) if probed else arrays.n):
                if evaluated >= budget:
                    out_of_budget = True
                    break
                evaluated += 1  # the seed's base build
                if probed:
                    base_items, payload, oldest, snaps = stats[seed]
                else:
                    base = kernel.build_eager_arrays(
                        arrays,
                        consts,
                        engine,
                        driver,
                        channel_id,
                        full_width,
                        seed,
                        False,  # allow_park: parking happened up front
                        stripe_chunk,
                        multirail,
                    )
                    if base is None:
                        # Nothing is dispatchable even with every earlier
                        # seed blocked; deeper seeds only block more, so
                        # this whole queue is exhausted — move to the next
                        # queue instead of burning budget on impossible
                        # seeds.
                        break
                    if type(base) is SeedBuild:
                        build = base
                        base_items = base.n_items
                    else:
                        build = None
                        base_items = len(base.items)
                if explain and base_items > widest_seen:
                    widest_seen = base_items
                scored_n = 0  # item count of this seed's last scored width
                for width in widths:
                    if scored_n:
                        if evaluated >= budget:
                            out_of_budget = True
                            break
                        evaluated += 1
                    n_items = base_items if width >= base_items else width
                    if n_items == scored_n:
                        continue
                    scored_n = n_items
                    # Prefixes are scored from their aggregates; no plan
                    # object unless one wins.
                    plan = None
                    if probed:
                        if n_items == base_items:
                            p, o = payload, oldest
                        else:
                            p = -1
                            o = 0.0
                            for cut_n, cut_p, cut_o in snaps:
                                if cut_n == n_items:
                                    p, o = cut_p, cut_o
                                    break
                            assert p >= 0, "probe width cut missing"
                        score = score_packed(consts, n_items, p, o, now)
                    elif build is not None:
                        score = score_packed(
                            consts,
                            n_items,
                            build.payload_prefix[n_items - 1],
                            build.oldest_prefix[n_items - 1],
                            now,
                        )
                    else:
                        # Control / rendezvous / lone-SAFER plans come
                        # out of the builder materialized.
                        plan = base
                        score = cost.score(base, now)
                    if score > best_score:
                        best_score = score
                        best_plan = plan
                        best_build = build
                        best_seed = (arrays, channel_id, seed)
                        best_n = n_items
                if out_of_budget:
                    break
            else:
                # Probed seeds exhausted mid-queue: the per-seed walk
                # would try one deeper seed, find nothing dispatchable,
                # and charge that probe.
                if probed and len(stats) < arrays.n:
                    if evaluated >= budget:
                        out_of_budget = True
                    else:
                        evaluated += 1
            if out_of_budget:
                break
        best = None
        if best_seed is not None:
            best = (best_score, best_seed[1], best_seed[2])
            if best_plan is None:
                # Materialize the winner (exactly one plan per decision).
                if best_build is None:
                    # Probe winner: rebuild its seed over the same (still
                    # coherent) arrays — deterministic, so the prefix is
                    # exactly what the probe scored.
                    p_arrays, p_channel, p_seed = best_seed
                    best_build = kernel.build_eager_arrays(
                        p_arrays,
                        consts,
                        engine,
                        driver,
                        p_channel,
                        full_width,
                        p_seed,
                        False,
                        stripe_chunk,
                        multirail,
                    )
                    assert type(best_build) is SeedBuild
                best_plan = best_build.plan(best_n)
        self._account(explain, evaluated, budget, out_of_budget, widest_seen, best)
        return best_plan

    def _account(
        self,
        explain: bool,
        evaluated: int,
        budget: int,
        out_of_budget: bool,
        widest_seen: int,
        best: tuple | None,
    ) -> None:
        """Budget and explain bookkeeping of one decision; ``best`` is
        the winner's ``(score, channel, seed)``."""
        self.last_evaluated = evaluated
        self.candidates_evaluated += evaluated
        if explain:
            self._last_explain = {
                "candidates": evaluated,
                "budget": budget,
                "truncation": "budget" if out_of_budget else "exhausted",
                "widest_items": widest_seen,
                "best_score": best[0] if best else None,
                "seed_channel": best[1] if best else None,
                "seed": best[2] if best else None,
            }
        else:
            self._last_explain = None

    def explain_last(self) -> dict | None:
        return self._last_explain

    @staticmethod
    def _widths(full_width: int) -> tuple[int, ...]:
        """Aggregation widths to try per seed: full, half, single."""
        widths = {full_width, max(full_width // 2, 1), 1}
        return tuple(sorted(widths, reverse=True))
