"""Online tail-latency telemetry: recording, views, and SLO burn rates.

This module turns the quantile sketches of :mod:`repro.obs.sketch` into
a live answer to "how bad are the tails *right now*":

* :class:`TailRecorder` is a tracer sink (subscribed by the
  observability plane next to the ring buffer) that feeds three sketch
  families in the plane's registry:

  - ``repro_edge_latency_us{src,dst}`` — one-way wire latency per
    directed edge.  In the simulation it correlates each ``nic.send``
    with its ``rx.deliver`` by packet id; on a live peer it reads the
    send timestamp piggybacked on the frame (``live.recv``'s
    ``sent_at``), which is a *raw-clock* difference the coordinator
    later corrects by shifting the merged sketch with the estimated
    clock offset (:func:`repro.obs.merge.correct_edge_sketches`).
  - ``repro_nic_service_us{nic}`` — per-rail service time, the span
    from ``nic.send`` to that NIC's next ``nic.idle``.  Identical
    semantics in both planes (live NICs measure the kernel drain).
  - ``repro_message_latency_us{node}`` — submit-to-reassembly message
    latency from ``message.complete`` records.

* :class:`TailView` is the read side: cheap cached per-edge/per-rail
  p50/p90/p99/p999 lookups over those sketches, exposed on the plane
  and on each engine so a strategy *could* consult it.  This PR only
  logs a ``tail_hint`` in ``optimizer.decide`` records — the hint rides
  the tracing-only emit path, so dispatch stays byte-identical.

* :class:`SLObjective` + :func:`evaluate_slo` implement SRE-style
  burn-rate tracking: an objective says "``target`` of crossings on
  edges matching ``edge`` finish within ``threshold_us``"; the burn
  rate is the observed violating fraction divided by the error budget
  (``1 - target``), so burn ``>= 1`` means the budget is being spent at
  least as fast as it accrues.  Online evaluation (``/tails``) is
  cumulative over the sketches; offline evaluation (``repro obs tail``)
  is exact and multi-window over the trace's timestamped crossings — a
  violation requires *every* configured window to burn, which filters
  one-off spikes from sustained regressions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry, QuantileSketch
from repro.util.errors import ConfigurationError
from repro.util.tracing import KindSink, TraceEvent

__all__ = [
    "EDGE_METRIC",
    "RAIL_METRIC",
    "MESSAGE_METRIC",
    "TailRecorder",
    "TailStats",
    "TailView",
    "SLObjective",
    "SLOStatus",
    "parse_slo",
    "pooled_message_sketch",
    "evaluate_slo",
    "evaluate_slo_offline",
    "main",
]

EDGE_METRIC = "repro_edge_latency_us"
RAIL_METRIC = "repro_nic_service_us"
MESSAGE_METRIC = "repro_message_latency_us"

_HELP = {
    EDGE_METRIC: "One-way wire latency per directed edge (microseconds)",
    RAIL_METRIC: "Per-NIC service time, send to drained (microseconds)",
    MESSAGE_METRIC: "Submit-to-reassembly message latency (microseconds)",
}

#: Quantiles every tail report speaks in.
TAIL_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: Unmatched sim sends kept for send→deliver correlation.  Live peers
#: never see the remote ``rx.deliver``, so their outbound sends would
#: accumulate forever without this cap (FIFO eviction).
_PENDING_CAP = 65536


class TailRecorder(KindSink):
    """Tracer sink that feeds the tail sketches from trace events.

    Stateless toward the dispatch path: it only *reads* events the
    guarded emit sites already produce, so subscribing it cannot change
    what a run does — only what it knows about itself.

    Sketch handles are kept per event source (``"nic:n0.mx00"``,
    ``"reasm:n1"``, a ``(sender, receiver)`` pair for edges): names are
    parsed and labels frozen once per source, not per event.
    """

    __slots__ = ("registry", "_pending", "_busy_since", "_sketches")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: packet id -> (send time, NIC source) for sim send→deliver pairs.
        self._pending: dict[Any, tuple[float, str]] = {}
        #: NIC source -> send time of the span currently in service.
        self._busy_since: dict[str, float] = {}
        self._sketches: dict[Any, QuantileSketch] = {}
        self.handlers = {
            "nic.send": self._on_send,
            "rx.deliver": self._on_deliver,
            "nic.idle": self._on_idle,
            "live.recv": self._on_live_recv,
            "message.complete": self._on_complete,
        }

    def _open(self, key: Any, metric: str, **labels: str) -> QuantileSketch:
        """First event of a source: resolve its registry sketch, keep it."""
        sketch = self._sketches[key] = self.registry.sketch(
            metric, labels=labels, help=_HELP[metric]
        )
        return sketch

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_send(self, event: TraceEvent) -> None:
        packet_id = event.detail.get("packet")
        if packet_id is not None:
            pending = self._pending
            if len(pending) >= _PENDING_CAP:
                pending.pop(next(iter(pending)))
            pending[packet_id] = (event.time, event.source)
        # First send of a busy span starts the rail service clock; the
        # span ends at the NIC's next idle.
        self._busy_since.setdefault(event.source, event.time)

    def _on_deliver(self, event: TraceEvent) -> None:
        sent = self._pending.pop(event.detail.get("packet"), None)
        if sent is None:
            return
        sent_at, nic = sent
        key = (nic, event.source)
        sketch = self._sketches.get(key) or self._open(
            key, EDGE_METRIC, src=_name(nic).split(".", 1)[0], dst=_name(event.source)
        )
        sketch.observe(max(event.time - sent_at, 0.0) * 1e6)

    def _on_idle(self, event: TraceEvent) -> None:
        nic = event.source
        started = self._busy_since.pop(nic, None)
        if started is None:
            return
        sketch = self._sketches.get(nic) or self._open(nic, RAIL_METRIC, nic=_name(nic))
        sketch.observe(max(event.time - started, 0.0) * 1e6)

    def _on_live_recv(self, event: TraceEvent) -> None:
        detail = event.detail
        sent_at = detail.get("sent_at")
        src = detail.get("src")
        if sent_at is None or src is None:
            return
        dst = detail.get("dst") or _name(event.source) or "?"
        key = (str(src), str(dst))
        sketch = self._sketches.get(key) or self._open(
            key, EDGE_METRIC, src=key[0], dst=key[1]
        )
        # Raw-clock difference: src stamped its clock, we read ours.
        # Clamp below zero (unaligned clocks) and let the coordinator
        # shift the merged sketch by the estimated offset afterwards.
        sketch.observe(max(event.time - float(sent_at), 0.0) * 1e6)

    def _on_complete(self, event: TraceEvent) -> None:
        submit_time = event.detail.get("submit_time")
        if submit_time is None:
            return
        reasm = event.source
        sketch = self._sketches.get(reasm) or self._open(
            reasm, MESSAGE_METRIC, node=_name(reasm)
        )
        sketch.observe(max(event.time - float(submit_time), 0.0) * 1e6)


def _name(source: str) -> str:
    """The component name of an event source (``"nic:n0.mx"`` -> ``"n0.mx"``)."""
    return source.partition(":")[2]


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
            sketch.count, *sketch.quantiles(TAIL_QUANTILES), sketch.mean, sketch.maximum
        )

    def to_dict(self) -> dict[str, float]:
        """JSON-able copy (the ``/tails`` payload entry)."""
        return asdict(self)


class TailView:
    """Read-only tail lookups over a registry's sketches.

    A lookup resolves its sketch handle once; the summary itself is a
    few bisects over the sorted view the sketch keeps between mutations
    (:meth:`QuantileSketch._ranks`), so repeated reads cost no re-sort —
    cheap enough to consult per dispatch, which is the contract
    tail-aware rail selection relies on.
    """

    __slots__ = ("_registry", "_handles", "objectives")

    def __init__(
        self,
        registry: MetricsRegistry,
        objectives: "tuple[SLObjective, ...]" = (),
    ) -> None:
        self._registry = registry
        self._handles: dict[tuple[str, ...], QuantileSketch] = {}
        self.objectives = objectives

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @staticmethod
    def _stats(sketch: QuantileSketch | None) -> TailStats | None:
        return TailStats.of(sketch) if sketch is not None and sketch.count else None

    def _sketch(self, key: tuple[str, ...], **labels: str) -> QuantileSketch | None:
        """The ``key[0]`` sketch with these labels (handle kept), or None."""
        sketch = self._handles.get(key)
        if sketch is None:
            sketch = self._registry.get(key[0], labels)
            if sketch is not None:
                self._handles[key] = sketch
        return sketch

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def edge(self, src: str, dst: str) -> TailStats | None:
        """Tails for one directed edge, or None before any crossing."""
        return self._stats(self._sketch((EDGE_METRIC, src, dst), src=src, dst=dst))

    def rail(self, nic: str) -> TailStats | None:
        """Service-time tails for one NIC, or None before any span."""
        return self._stats(self._sketch((RAIL_METRIC, nic), nic=nic))

    def message(self, node: str) -> TailStats | None:
        """Message-latency tails for one node, or None."""
        return self._stats(self._sketch((MESSAGE_METRIC, node), node=node))

    def _family(self, metric: str, *names: str) -> dict[str, TailStats]:
        """Every non-empty ``metric`` sketch, keyed by its ``names`` labels."""
        out: dict[str, TailStats] = {}
        for sketch in self._registry.sketches():
            if sketch.name == metric and sketch.count:
                labels = dict(sketch.labels)
                key = "->".join(labels.get(name, "?") for name in names)
                out[key] = TailStats.of(sketch)
        return out

    def edges(self) -> dict[str, TailStats]:
        """All edges, keyed ``"src->dst"``."""
        return self._family(EDGE_METRIC, "src", "dst")

    def rails(self) -> dict[str, TailStats]:
        """All rails, keyed by NIC name."""
        return self._family(RAIL_METRIC, "nic")

    def messages(self) -> dict[str, TailStats]:
        """Message latency per node."""
        return self._family(MESSAGE_METRIC, "node")

    # ------------------------------------------------------------------
    # scheduler-facing hint
    # ------------------------------------------------------------------
    def hint(self, src: str, dst: str, nic: str) -> dict[str, float] | None:
        """Compact per-decision tail context, or None before any data.

        This is what rides ``optimizer.decide`` records as
        ``tail_hint``.  It is asked for once per dispatch, typically
        right after both sketches changed, so it reads just the ranks it
        logs straight off the sketches instead of summarizing them.
        """
        hint: dict[str, float] = {}
        edge = self._sketch((EDGE_METRIC, src, dst), src=src, dst=dst)
        if edge is not None and edge.count:
            hint["edge_p99_us"], hint["edge_p999_us"] = edge.quantiles((0.99, 0.999))
            hint["edge_n"] = edge.count
        rail = self._sketch((RAIL_METRIC, nic), nic=nic)
        if rail is not None and rail.count:
            hint["rail_p99_us"] = rail.quantile(0.99)
            hint["rail_n"] = rail.count
        return hint or None

    # ------------------------------------------------------------------
    # full dump (the /tails payload)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able view of every tail family plus SLO burn rates."""
        payload: dict[str, Any] = {
            "edges": {k: v.to_dict() for k, v in sorted(self.edges().items())},
            "rails": {k: v.to_dict() for k, v in sorted(self.rails().items())},
            "messages": {
                k: v.to_dict() for k, v in sorted(self.messages().items())
            },
        }
        if self.objectives:
            payload["slo"] = [
                status.to_dict()
                for status in evaluate_slo(self._registry, self.objectives)
            ]
        return payload


def pooled_message_sketch(registry: MetricsRegistry) -> QuantileSketch | None:
    """Every node's message-latency sketch merged into one, or None.

    This is what feeds the report's ``latency_p99_us``/``latency_p999_us``
    columns: one cluster-wide distribution, built by sketch merge rather
    than raw-sample pooling, so it works identically on a sim plane and
    on the coordinator's aggregated live registries.
    """
    pooled: QuantileSketch | None = None
    for sketch in registry.sketches():
        if sketch.name != MESSAGE_METRIC or not sketch.count:
            continue
        if pooled is None:
            pooled = QuantileSketch(MESSAGE_METRIC, k=sketch.k)
        pooled.merge(sketch)
    return pooled


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
    #: window label ("cumulative" online, "10s" offline) -> burn rate.
    burn: dict[str, float] = field(default_factory=dict)
    samples: int = 0
    violated: bool = False

    @property
    def worst_burn(self) -> float:
        return max(self.burn.values()) if self.burn else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able copy (the ``/tails`` payload's ``slo`` entries)."""
        return asdict(self)


def evaluate_slo(
    registry: MetricsRegistry, objectives: Iterable[SLObjective]
) -> list[SLOStatus]:
    """Online (cumulative) burn rates from the edge sketches.

    Sketches cannot window by time, so the online view has a single
    run-so-far window; burn ``>= 1`` means the edge is out of budget
    over the whole run.  The exact multi-window verdict comes from
    :func:`evaluate_slo_offline` on the trace.
    """
    edges = [s for s in registry.sketches() if s.name == EDGE_METRIC]
    statuses: list[SLOStatus] = []
    for objective in objectives:
        for sketch in edges:
            labels = dict(sketch.labels)
            edge_name = f"{labels.get('src', '?')}->{labels.get('dst', '?')}"
            if not fnmatchcase(edge_name, objective.edge):
                continue
            burn = sketch.fraction_above(objective.threshold_us) / objective.budget
            statuses.append(
                SLOStatus(
                    objective=objective.name,
                    edge=edge_name,
                    threshold_us=objective.threshold_us,
                    target=objective.target,
                    burn={"cumulative": burn},
                    samples=sketch.count,
                    violated=burn >= 1.0,
                )
            )
    return statuses


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


# ----------------------------------------------------------------------
# ``python -m repro obs tail``
# ----------------------------------------------------------------------
def render_tail_report(
    analysis, statuses: list[SLOStatus] | None = None
) -> str:
    """ASCII tail report from an offline :class:`TraceAnalysis`."""
    from repro.util.units import format_time

    lines: list[str] = []
    if not analysis.edges:
        lines.append(
            "no correlated wire crossings in this trace "
            "(needs live.recv records from a merged live trace, or a "
            "traced sim run)"
        )
    else:
        lines.append("per-edge one-way latency (exact, from trace samples):")
        name_width = max(len(e) for e in analysis.edges)
        for edge_name in sorted(analysis.edges):
            edge = analysis.edges[edge_name]
            lines.append(
                f"  {edge_name:<{name_width}}  n={edge.count:<6} "
                f"p50 {format_time(edge.percentile(0.50))}  "
                f"p90 {format_time(edge.percentile(0.90))}  "
                f"p99 {format_time(edge.percentile(0.99))}  "
                f"p999 {format_time(edge.percentile(0.999))}  "
                f"max {format_time(edge.percentile(1.0))}"
            )
    if statuses is not None:
        lines.append("")
        if not statuses:
            lines.append("SLO: no objectives matched any edge")
        else:
            lines.append("SLO burn rates (burn >= 1 in every window = violation):")
            for status in statuses:
                windows = "  ".join(
                    f"{label}={burn:.2f}" for label, burn in status.burn.items()
                )
                verdict = "VIOLATED" if status.violated else "ok"
                lines.append(
                    f"  [{verdict:^8}] {status.objective}: {status.edge} "
                    f"<= {status.threshold_us:g}us @ {status.target:g} "
                    f"(n={status.samples})  burn {windows}"
                )
    return "\n".join(lines)


def main(args) -> int:
    """Entry point for ``python -m repro obs tail``."""
    import json
    from pathlib import Path

    from repro.obs.analyze import analyze_file

    analysis = analyze_file(Path(args.trace))
    statuses: list[SLOStatus] | None = None
    if getattr(args, "scenario", None):
        spec = json.loads(Path(args.scenario).read_text())
        objectives = parse_slo(spec.get("observability", {}).get("slo"))
        statuses = evaluate_slo_offline(
            analysis.edges, objectives, t_end=analysis.span[1]
        )
    try:
        print(f"== tail report: {args.trace} ==")
        print(render_tail_report(analysis, statuses))
    except BrokenPipeError:
        return 0
    if getattr(args, "check", False):
        if not analysis.edges:
            print("FAIL: --check requires at least one correlated edge")
            return 1
        violated = [s for s in statuses or [] if s.violated]
        if violated:
            print(f"FAIL: {len(violated)} SLO violation(s)")
            return 1
    return 0
