"""Online sweeps of the lookahead window and rearrangement budget.

The paper's closing future work: "dynamically adapt[ing] the lookahead
window size and the number of rearrangements evaluated" to the
workload.  The controller treats each ``(lookahead_window,
search_budget)`` pair as a bandit arm, measures every arm over a fixed
number of scheduling decisions, and steers with one of two classic
schemes:

* **epsilon-greedy** — round-robin until every arm has one trial, then
  exploit the best-scoring arm, exploring a random one with probability
  ``epsilon``;
* **successive halving** — trial every surviving arm once per round,
  keep the better half, repeat until a single arm remains (then stay
  on it).

Reward is *payload bytes per dispatched packet* over the trial — the
aggregation quality the whole optimizer exists to maximize — read from
the engine's own cumulative counters, so measuring costs nothing on the
hot path.  Applying an arm mutates the engine's **private** config copy
(the tuner makes one at install time).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.tuner.config import SweepConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["SweepController"]


class SweepController:
    """Epsilon-greedy / successive-halving arm selection over live metrics."""

    def __init__(self, engine: "CommEngineBase", config: SweepConfig) -> None:
        self.engine = engine
        self.config = config
        #: All arms, as ``(lookahead_window, search_budget)`` pairs.
        self.arms: list[tuple[int, int]] = [
            (w, b) for w in config.windows for b in config.budgets
        ]
        #: arm → list of per-trial rewards.
        self.rewards: dict[tuple[int, int], list[float]] = {a: [] for a in self.arms}
        self.trials = 0
        self.current: tuple[int, int] | None = None
        self._rng = random.Random(config.seed)
        self._decisions = 0
        self._start_payload = 0
        self._start_dispatches = 0
        # Successive halving state: the surviving arms of this round and
        # the cursor into them; None once converged to a single arm.
        self._round: list[tuple[int, int]] | None = (
            list(self.arms) if config.mode == "halving" else None
        )
        self._cursor = 0
        self.converged: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # the per-decision hook
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one decision; returns True when a new arm was applied."""
        if self.current is None:
            self._apply(self._pick())
            return True
        self._decisions += 1
        if self._decisions < self.config.trial_decisions:
            return False
        self._finish_trial()
        nxt = self._pick()
        if nxt == self.current:
            # Same arm re-measured: fresh trial window, no config change.
            self._begin_trial()
            return False
        self._apply(nxt)
        return True

    def _apply(self, arm: tuple[int, int]) -> None:
        self.current = arm
        window, budget = arm
        self.engine.config.lookahead_window = window
        self.engine.config.search_budget = budget
        self._begin_trial()

    def _begin_trial(self) -> None:
        stats = self.engine.stats
        self._decisions = 0
        self._start_payload = stats.payload_bytes
        self._start_dispatches = stats.dispatches

    def _finish_trial(self) -> None:
        stats = self.engine.stats
        dispatches = stats.dispatches - self._start_dispatches
        payload = stats.payload_bytes - self._start_payload
        reward = payload / dispatches if dispatches else 0.0
        assert self.current is not None
        self.rewards[self.current].append(reward)
        self.trials += 1

    # ------------------------------------------------------------------
    # arm selection
    # ------------------------------------------------------------------
    def _mean(self, arm: tuple[int, int]) -> float:
        rewards = self.rewards[arm]
        return sum(rewards) / len(rewards) if rewards else 0.0

    def best_arm(self) -> tuple[int, int] | None:
        """The best-scoring tried arm, or None before any trial."""
        tried = [a for a in self.arms if self.rewards[a]]
        if not tried:
            return None
        return max(tried, key=self._mean)

    def _pick(self) -> tuple[int, int]:
        if self.config.mode == "halving":
            return self._pick_halving()
        return self._pick_epsilon()

    def _pick_epsilon(self) -> tuple[int, int]:
        for arm in self.arms:
            if not self.rewards[arm]:
                return arm  # explore untried arms first, in grid order
        if self._rng.random() < self.config.epsilon:
            return self._rng.choice(self.arms)
        best = self.best_arm()
        assert best is not None
        return best

    def _pick_halving(self) -> tuple[int, int]:
        assert self._round is not None
        if self.converged is not None:
            return self.converged
        if self._cursor >= len(self._round):
            # Round complete: keep the better half (at least one arm).
            survivors = sorted(self._round, key=self._mean, reverse=True)
            self._round = survivors[: max(1, len(survivors) // 2)]
            self._cursor = 0
            if len(self._round) == 1:
                self.converged = self._round[0]
                return self.converged
        arm = self._round[self._cursor]
        self._cursor += 1
        return arm

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-able state (CLI reports and the ``/tuner`` endpoint)."""
        best = self.best_arm()
        return {
            "mode": self.config.mode,
            "arms": len(self.arms),
            "trials": self.trials,
            "current": list(self.current) if self.current else None,
            "best": list(best) if best else None,
            "converged": list(self.converged) if self.converged else None,
            "rewards": {
                f"w{w}/b{b}": round(self._mean((w, b)), 2)
                for (w, b) in self.arms
                if self.rewards[(w, b)]
            },
        }
