"""Tail-latency rows and SLO burn rates.

* :class:`TailStats` is one exact tail row in microseconds: a per-edge
  one-way latency or a per-rail service time, both computed from the
  trace after the run (:func:`repro.obs.analyze.analyze_events`), the
  entries of a live run's ``tails["edges"]`` / ``tails["rails"]``.
  Nothing here is online: message latency comes exactly from the
  records (:class:`~repro.runtime.metrics.LatencySummary`), and the
  rail tails the rail order acts on are each NIC's own window
  (:attr:`~repro.network.nic.NIC.service_us`).

* :class:`SLObjective` + :func:`evaluate_slo_offline` implement
  SRE-style burn-rate tracking: an objective says "``target`` of
  crossings on edges matching ``edge`` finish within ``threshold_us``";
  the burn rate is the observed violating fraction divided by the error
  budget (``1 - target``), so burn ``>= 1`` means the budget is being
  spent at least as fast as it accrues.  Evaluation is exact and
  multi-window over the trace's timestamped crossings (``repro obs
  analyze --scenario`` and a live run's ``tails``) — a violation
  requires *every* configured window to burn, which filters one-off
  spikes from sustained regressions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = [
    "TailStats",
    "SLObjective",
    "SLOStatus",
    "parse_slo",
    "evaluate_slo_offline",
]


@dataclass(frozen=True, slots=True)
class TailStats:
    """One exact tail row (microsecond values)."""

    count: int
    p50_us: float
    p90_us: float
    p99_us: float
    p999_us: float
    mean_us: float
    max_us: float

    def to_dict(self) -> dict[str, float]:
        """JSON-able copy (a ``tails`` payload entry)."""
        return asdict(self)


# ----------------------------------------------------------------------
# SLO objectives and burn rates
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SLObjective:
    """One latency objective: ``target`` of crossings on edges matching
    ``edge`` complete within ``threshold_us`` microseconds."""

    name: str
    edge: str  #: fnmatch glob over ``"src->dst"`` edge names
    threshold_us: float
    target: float = 0.999
    windows: tuple[float, ...] = (1.0, 10.0)  #: seconds, trace-relative

    @property
    def budget(self) -> float:
        """Error budget: the tolerated violating fraction."""
        return 1.0 - self.target


_SLO_KEYS = {"name", "edge", "threshold_us", "target", "windows"}


def parse_slo(spec: object) -> tuple[SLObjective, ...]:
    """Parse the scenario ``observability.slo`` block.

    The block is a list of objective objects::

        "slo": [{"name": "edge-fast", "edge": "*", "threshold_us": 5000,
                 "target": 0.99, "windows": [1.0, 10.0]}]
    """
    if spec is None:
        return ()
    if not isinstance(spec, (list, tuple)):
        raise ConfigurationError(
            f"observability.slo must be a list of objectives, got {type(spec).__name__}"
        )
    objectives: list[SLObjective] = []
    for i, entry in enumerate(spec):
        if not isinstance(entry, Mapping):
            raise ConfigurationError(f"observability.slo[{i}] must be an object")
        unknown = set(entry) - _SLO_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in observability.slo[{i}]: {sorted(unknown)}"
            )
        if "threshold_us" not in entry:
            raise ConfigurationError(
                f"observability.slo[{i}] needs a threshold_us"
            )
        threshold = float(entry["threshold_us"])
        if threshold <= 0:
            raise ConfigurationError(
                f"observability.slo[{i}].threshold_us must be > 0, got {threshold}"
            )
        target = float(entry.get("target", 0.999))
        if not 0.0 < target < 1.0:
            raise ConfigurationError(
                f"observability.slo[{i}].target must be in (0, 1), got {target}"
            )
        windows = tuple(float(w) for w in entry.get("windows", (1.0, 10.0)))
        if not windows or any(w <= 0 for w in windows):
            raise ConfigurationError(
                f"observability.slo[{i}].windows must be positive durations"
            )
        objectives.append(
            SLObjective(
                name=str(entry.get("name", f"slo{i}")),
                edge=str(entry.get("edge", "*")),
                threshold_us=threshold,
                target=target,
                windows=windows,
            )
        )
    return tuple(objectives)


@dataclass(slots=True)
class SLOStatus:
    """Burn-rate verdict for one objective on one edge."""

    objective: str
    edge: str
    threshold_us: float
    target: float
    #: window label (``"10s"``) -> burn rate.
    burn: dict[str, float] = field(default_factory=dict)
    samples: int = 0
    violated: bool = False

    @property
    def worst_burn(self) -> float:
        return max(self.burn.values()) if self.burn else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able copy (the ``tails`` payload's ``slo`` entries)."""
        return asdict(self)


def evaluate_slo_offline(
    edges: Mapping[str, Any],
    objectives: Iterable[SLObjective],
    *,
    t_end: float,
) -> list[SLOStatus]:
    """Exact multi-window burn rates from timestamped trace crossings.

    ``edges`` maps edge names to objects with parallel ``times`` /
    ``latencies`` lists (seconds) — :class:`repro.obs.analyze._Spans`.
    A violation requires **every** window to burn its budget, the
    standard multi-window rule: short windows alone alert on blips,
    long windows alone alert too late, both together mean the regression
    is current *and* sustained.
    """
    statuses: list[SLOStatus] = []
    for objective in objectives:
        threshold_s = objective.threshold_us / 1e6
        for edge_name in sorted(edges):
            if not fnmatchcase(edge_name, objective.edge):
                continue
            stats = edges[edge_name]
            status = SLOStatus(
                objective=objective.name,
                edge=edge_name,
                threshold_us=objective.threshold_us,
                target=objective.target,
                samples=len(stats.latencies),
            )
            burns: list[float] = []
            for window in objective.windows:
                start = t_end - window
                in_window = [
                    latency
                    for t, latency in zip(stats.times, stats.latencies)
                    if t >= start
                ]
                if in_window:
                    fraction = sum(
                        1 for latency in in_window if latency > threshold_s
                    ) / len(in_window)
                    burn = fraction / objective.budget
                else:
                    burn = 0.0
                status.burn[f"{window:g}s"] = burn
                burns.append(burn)
            status.violated = bool(burns) and all(b >= 1.0 for b in burns)
            statuses.append(status)
    return statuses
