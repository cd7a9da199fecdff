"""SLO burn rates over a trace's edge latencies.

:class:`SLObjective` + :func:`evaluate_slo_offline` implement SRE-style
burn-rate tracking: an objective says "``target`` of crossings on edges
matching ``edge`` finish within ``threshold_us``"; the burn rate is the
observed violating fraction divided by the error budget
(``1 - target``), so burn ``>= 1`` means the budget is being spent at
least as fast as it accrues.  Evaluation is exact and multi-window over
the trace's timestamped crossings (``repro obs analyze --scenario`` and
a live run's ``tails``) — a violation requires *every* configured window
to burn, which filters one-off spikes from sustained regressions.

Nothing here is online: the edge latencies and rail service times are
computed from the trace after the run
(:func:`repro.obs.analyze.analyze_events`), message latency exactly from
the records (:class:`~repro.runtime.metrics.LatencySummary`), and the
rail tails the rail order acts on are each NIC's own window
(:attr:`~repro.network.nic.NIC.service_us`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["SLObjective", "SLOStatus", "evaluate_slo_offline"]


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One latency objective: ``target`` of crossings on edges matching
    ``edge`` complete within ``threshold_us`` microseconds.

    An entry of the scenario ``observability.slo`` list, read by
    :meth:`repro.obs.plane.ObservabilityConfig.from_spec`; ``windows``
    (seconds, trace-relative) is read as a list and kept as a tuple.
    """

    name: str
    threshold_us: float
    edge: str = "*"  #: fnmatch glob over ``"src->dst"`` edge names
    target: float = 0.999
    windows: list[float] = (1.0, 10.0)

    def __post_init__(self) -> None:
        if not self.threshold_us > 0:
            raise ConfigurationError(
                f"slo {self.name!r}: threshold_us must be > 0, got {self.threshold_us}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"slo {self.name!r}: target must be in (0, 1), got {self.target}"
            )
        windows = tuple(self.windows)
        if not windows or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) and w > 0 for w in windows
        ):
            raise ConfigurationError(
                f"slo {self.name!r}: windows must be positive durations, got {self.windows!r}"
            )
        object.__setattr__(self, "windows", tuple(map(float, windows)))

    @property
    def budget(self) -> float:
        """Error budget: the tolerated violating fraction."""
        return 1.0 - self.target


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
