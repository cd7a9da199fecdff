"""Tail-latency telemetry: the rail sketches, and SLO burn rates.

* :class:`TailRecorder` is a tracer sink (subscribed by the
  observability plane next to its trace recorder) that feeds the one
  sketch family a running engine reads, ``repro_nic_service_us{nic}``:
  per-rail service time, the span from ``nic.send`` to that NIC's next
  ``nic.idle``.  Identical semantics in both planes (live NICs measure
  the kernel drain).

  Nothing else is sketched.  Message latency comes exactly from the
  records (:class:`~repro.runtime.metrics.LatencySummary`) and per-edge
  one-way latency exactly from the trace, after the run
  (:func:`repro.obs.analyze.analyze_events`).

* :class:`TailView` is the read side: cheap cached per-rail
  p50/p90/p99/p999 lookups over those sketches, exposed on the plane
  and on each engine, where the tuner's rail selector reads it.

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

from repro.obs.metrics import MetricsRegistry, QuantileSketch
from repro.obs.sketch import SUMMARY_QUANTILES
from repro.util.errors import ConfigurationError
from repro.util.tracing import KindSink, TraceEvent

__all__ = [
    "RAIL_METRIC",
    "TailRecorder",
    "TailStats",
    "TailView",
    "SLObjective",
    "SLOStatus",
    "parse_slo",
    "evaluate_slo_offline",
]

RAIL_METRIC = "repro_nic_service_us"


class TailRecorder(KindSink):
    """Tracer sink that feeds the rail sketches from trace events.

    Stateless toward the dispatch path: it only *reads* events the
    guarded emit sites already produce, so subscribing it cannot change
    what a run does — only what it knows about itself.

    Sketch handles are kept per NIC source (``"nic:n0.mx00"``): names
    are parsed and labels frozen once per source, not per event.
    """

    __slots__ = ("registry", "_busy_since", "_sketches")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: NIC source -> send time of the span currently in service.
        self._busy_since: dict[str, float] = {}
        self._sketches: dict[str, QuantileSketch] = {}
        self.handlers = {"nic.send": self._on_send, "nic.idle": self._on_idle}

    def _on_send(self, event: TraceEvent) -> None:
        # First send of a busy span starts the rail service clock; the
        # span ends at the NIC's next idle.
        self._busy_since.setdefault(event.source, event.time)

    def _on_idle(self, event: TraceEvent) -> None:
        nic = event.source
        started = self._busy_since.pop(nic, None)
        if started is None:
            return
        sketch = self._sketches.get(nic)
        if sketch is None:
            sketch = self._sketches[nic] = self.registry.sketch(
                RAIL_METRIC,
                labels={"nic": nic.partition(":")[2]},
                help="Per-NIC service time, send to drained (microseconds)",
            )
        sketch.observe(max(event.time - started, 0.0) * 1e6)


@dataclass(frozen=True, slots=True)
class TailStats:
    """One sketch's tail summary (microsecond values)."""

    count: int
    p50_us: float
    p90_us: float
    p99_us: float
    p999_us: float
    mean_us: float
    max_us: float

    @classmethod
    def of(cls, sketch: QuantileSketch) -> "TailStats":
        return cls(
            sketch.count, *sketch.quantiles(SUMMARY_QUANTILES), sketch.mean, sketch.maximum
        )

    def to_dict(self) -> dict[str, float]:
        """JSON-able copy (a ``tails`` payload entry)."""
        return asdict(self)


class TailView:
    """Read-only rail-tail lookups over a registry's sketches.

    A lookup resolves its sketch handle once; the summary itself is a
    few bisects over the sorted view the sketch keeps between mutations
    (:meth:`QuantileSketch._ranks`), so repeated reads cost no re-sort —
    cheap enough to consult per dispatch, which is the contract
    tail-aware rail selection relies on.
    """

    __slots__ = ("_registry", "_handles")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._handles: dict[str, QuantileSketch] = {}

    def rail(self, nic: str) -> TailStats | None:
        """Service-time tails for one NIC, or None before any span."""
        sketch = self._handles.get(nic)
        if sketch is None:
            sketch = self._registry.get(RAIL_METRIC, {"nic": nic})
            if sketch is None:
                return None
            self._handles[nic] = sketch
        return TailStats.of(sketch) if sketch.count else None

    def rails(self) -> dict[str, TailStats]:
        """Every measured rail, keyed by NIC name."""
        return {
            dict(sketch.labels)["nic"]: TailStats.of(sketch)
            for sketch in self._registry.sketches()
            if sketch.name == RAIL_METRIC and sketch.count
        }


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
    ``latencies`` lists (seconds) — :class:`repro.obs.analyze._EdgeStats`.
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
