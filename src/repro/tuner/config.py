"""Validated shape of the scenario ``"tuner"`` block.

Same contract as the ``"faults"`` and ``"observability"`` blocks:
unknown keys anywhere are rejected with
:class:`~repro.util.errors.ConfigurationError` naming the bad key — a
typo'd knob silently ignored would invalidate the run it was meant to
tune.  The block is strict and optional::

    "tuner": {
      "enabled": true,            # false = parse but install nothing
      "sweep": {                  # online parameter sweeps (optional)
        "mode": "epsilon",        # or "halving"
        "epsilon": 0.1,
        "trial_decisions": 64,
        "windows": [8, 16, 32],   # lookahead_window arms
        "budgets": [8, 16, 32],   # search_budget arms
        "seed": 0
      },
      "rails": {                  # tail-acting rail selection (optional)
        "p99_budget_us": 500.0,
        "min_samples": 32,
        "refresh_every": 32
      }
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["TunerConfig", "SweepConfig", "RailsConfig", "SWEEP_MODES"]

#: Valid values of :attr:`SweepConfig.mode`.
SWEEP_MODES = ("epsilon", "halving")

_TUNER_KEYS = frozenset({"enabled", "sweep", "rails"})
_SWEEP_KEYS = frozenset(
    {"mode", "epsilon", "trial_decisions", "windows", "budgets", "seed"}
)
_RAILS_KEYS = frozenset({"p99_budget_us", "min_samples", "refresh_every"})


def _reject_unknown(spec: Mapping[str, Any], known: frozenset, where: str) -> None:
    for key in spec:
        if key not in known:
            raise ConfigurationError(
                f"unknown {where} key {key!r} (known: {sorted(known)})"
            )


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Online sweep of lookahead window and rearrangement budget.

    Parameters
    ----------
    mode:
        ``"epsilon"`` — epsilon-greedy bandit over the arm grid;
        ``"halving"`` — successive halving (each round keeps the better
        half of the surviving arms, until one remains).
    epsilon:
        Exploration probability once every arm has one trial
        (epsilon-greedy mode only).
    trial_decisions:
        Scheduling decisions one arm is measured over before the
        controller moves on.
    windows / budgets:
        Candidate values of ``EngineConfig.lookahead_window`` and
        ``EngineConfig.search_budget``; the arm grid is their cross
        product.
    seed:
        Seed of the controller's private RNG (exploration is the only
        random choice — trials themselves are deterministic).
    """

    mode: str = "epsilon"
    epsilon: float = 0.1
    trial_decisions: int = 64
    windows: tuple[int, ...] = (8, 16, 32)
    budgets: tuple[int, ...] = (8, 16, 32)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ConfigurationError(
                f"sweep mode must be one of {SWEEP_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"sweep epsilon must be in [0, 1], got {self.epsilon}"
            )
        if self.trial_decisions < 1:
            raise ConfigurationError(
                f"trial_decisions must be >= 1, got {self.trial_decisions}"
            )
        if not self.windows or any(w < 1 for w in self.windows):
            raise ConfigurationError(f"sweep windows must be >= 1, got {self.windows}")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ConfigurationError(f"sweep budgets must be >= 1, got {self.budgets}")

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "SweepConfig":
        _reject_unknown(spec, _SWEEP_KEYS, "tuner sweep")
        kwargs: dict[str, Any] = {}
        for key in ("mode", "epsilon", "trial_decisions", "seed"):
            if key in spec:
                kwargs[key] = spec[key]
        for key in ("windows", "budgets"):
            if key in spec:
                kwargs[key] = tuple(spec[key])
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class RailsConfig:
    """Tail-acting rail selection: prefer rails within the p99 budget.

    Parameters
    ----------
    p99_budget_us:
        A rail whose service-time sketch p99 is at or below this is
        "within budget" and preferred (best p99 first); rails above it
        are tried last.
    min_samples:
        Sketch observations a rail needs before its tail is trusted;
        rails with fewer keep their original position.
    refresh_every:
        Scheduling passes between re-reads of the tail view (ordering
        is cached in between — quantile queries are not free).
    """

    p99_budget_us: float = 1000.0
    min_samples: int = 32
    refresh_every: int = 32

    def __post_init__(self) -> None:
        if self.p99_budget_us <= 0:
            raise ConfigurationError(
                f"p99_budget_us must be > 0, got {self.p99_budget_us}"
            )
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.refresh_every < 1:
            raise ConfigurationError(
                f"refresh_every must be >= 1, got {self.refresh_every}"
            )

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "RailsConfig":
        _reject_unknown(spec, _RAILS_KEYS, "tuner rails")
        return cls(**dict(spec))


@dataclass(frozen=True, slots=True)
class TunerConfig:
    """Validated shape of the scenario ``"tuner"`` block.

    Parameters
    ----------
    enabled:
        ``False`` parses the block but installs nothing — dispatch stays
        byte-identical to a tuner-less run (the escape hatch).
    sweep / rails:
        Optional sub-controllers (see :class:`SweepConfig`,
        :class:`RailsConfig`); ``None`` leaves them off.
    """

    enabled: bool = True
    sweep: SweepConfig | None = None
    rails: RailsConfig | None = None

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "TunerConfig":
        """Build from a scenario mapping, rejecting unknown keys."""
        _reject_unknown(spec, _TUNER_KEYS, "tuner")
        kwargs: dict[str, Any] = {}
        if "enabled" in spec:
            kwargs["enabled"] = spec["enabled"]
        sweep_spec = spec.get("sweep")
        if sweep_spec is not None:
            kwargs["sweep"] = SweepConfig.from_spec(sweep_spec)
        rails_spec = spec.get("rails")
        if rails_spec is not None:
            kwargs["rails"] = RailsConfig.from_spec(rails_spec)
        return cls(**kwargs)
