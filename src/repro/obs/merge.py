"""Cross-peer merge semantics: clocks, trace streams, metric registries.

A live run (:mod:`repro.live`) produces one observability stream *per OS
process*.  This module turns those fragments into one coherent picture:

* **Clock-offset estimation** — every peer measures time as
  ``wall_clock - epoch`` with the coordinator's epoch, so offsets are
  small but not zero (and on a multi-host mesh they would be real).
  :func:`estimate_offsets` starts from control-protocol round-trip
  samples (the peer's ``now`` against the request/reply midpoint — the
  classic NTP estimate, taken from the minimum-RTT sample) and refines
  the result with matched send/receive pairs: for each directed edge the
  minimum observed raw one-way delay bounds the relative skew from one
  side, and having both directions brackets it, so the midpoint
  correction cancels residual skew without ever assuming the wire is
  symmetric for any *individual* crossing.
* **Event alignment** — :func:`align_events` applies one constant offset
  per peer (subtracted from every timestamp), which preserves each
  peer's internal event ordering by construction, rewrites the
  receive-side ``live.recv`` records with the *aligned* send timestamp,
  and stable-sorts the union.  A crossing whose aligned send would land
  after its receive (possible when the true latency is below the
  residual skew) is clamped and counted — never silently reordered.
* **Registry merging** — :func:`merge_registries` builds the
  cluster-level :class:`~repro.obs.metrics.MetricsRegistry`: every
  per-peer instrument reappears with a ``peer`` label.
  :func:`aggregate_registries` collapses same-name/same-label
  instruments across inputs instead: counters sum (associative and
  commutative), gauges take the last writer, and quantile sketches
  merge level-wise (:meth:`QuantileSketch.merge`), which replaces
  raw-sample pooling for cross-peer tail percentiles.
* **Sketch offset correction** — a live peer records one-way edge
  latencies against *raw* clocks (it cannot know the cluster offsets
  mid-run).  Because every sample on a directed edge needs the same
  constant correction, :func:`correct_edge_sketches` applies it exactly,
  post-merge, by shifting each edge sketch — the sketch equivalent of
  the per-event rewrite :func:`align_events` does for trace records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    QuantileSketch,
    snapshot_entry,
)
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

__all__ = [
    "KIND_WIRE_RECV",
    "OffsetSample",
    "Crossing",
    "MergedTrace",
    "estimate_offsets",
    "extract_crossings",
    "align_events",
    "merge_registries",
    "aggregate_registries",
    "correct_edge_sketches",
]

#: Trace-event kind emitted by a live peer when a wire frame is decoded
#: and handed to the node receiver (the receive half of a flow event).
KIND_WIRE_RECV = "live.recv"

#: Relaxation sweeps for pairwise skew refinement (each sweep halves the
#: residual of a pair; three are plenty for loopback-scale skews).
_REFINE_PASSES = 3


@dataclass(frozen=True, slots=True)
class OffsetSample:
    """One control-protocol round trip against a peer's clock.

    ``t0``/``t1`` are coordinator clock (seconds since epoch) at request
    send and reply receive; ``peer_now`` is the peer's clock when it
    built the reply.
    """

    peer: str
    t0: float
    t1: float
    peer_now: float

    @property
    def rtt(self) -> float:
        return self.t1 - self.t0

    @property
    def offset(self) -> float:
        """Midpoint estimate of (peer clock - coordinator clock)."""
        return self.peer_now - (self.t0 + self.t1) / 2.0


@dataclass(frozen=True, slots=True)
class Crossing:
    """One matched wire crossing: raw timestamps from both clocks."""

    src: str
    dst: str
    sent_at: float  #: sender clock, stamped into the wire meta
    received_at: float  #: receiver clock, at frame decode


@dataclass
class MergedTrace:
    """One aligned, merged event stream plus its correlation accounting."""

    events: list[TraceEvent]
    offsets: dict[str, float]
    crossings_matched: int = 0
    crossings_clamped: int = 0
    #: per-peer events that arrived in the merge (before sorting).
    events_by_peer: dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# clock offsets
# ----------------------------------------------------------------------
def estimate_offsets(
    samples: Iterable[OffsetSample],
    crossings: Iterable[Crossing] = (),
    *,
    peers: Iterable[str] = (),
) -> dict[str, float]:
    """Per-peer clock offsets (peer clock minus the merged timeline).

    Subtracting ``offsets[p]`` from every timestamp peer ``p`` produced
    puts all peers on one timeline.  Peers named in ``peers`` (or seen
    in ``samples``/``crossings``) always appear in the result, at 0.0
    when nothing constrains them.
    """
    offsets: dict[str, float] = {name: 0.0 for name in peers}

    # Round-trip base estimate: the minimum-RTT sample has the least
    # queueing noise in it, so its midpoint is the best single guess.
    best: dict[str, OffsetSample] = {}
    for sample in samples:
        if sample.rtt < 0:
            raise ConfigurationError(
                f"offset sample for {sample.peer!r} has negative RTT {sample.rtt}"
            )
        current = best.get(sample.peer)
        if current is None or sample.rtt < current.rtt:
            best[sample.peer] = sample
    for name, sample in best.items():
        offsets[name] = sample.offset

    # Pairwise refinement from matched crossings.  For the directed edge
    # A->B let d_AB = min(recv_B - sent_A) after current alignment; with
    # residual skew s (B's clock fast by s relative to A) and true
    # minimum latency L:  d_AB ~ L + s and d_BA ~ L - s, so
    # s ~ (d_AB - d_BA) / 2.  Split the correction between both ends so
    # peers constrained by several edges converge instead of ping-ponging.
    by_edge: dict[tuple[str, str], list[Crossing]] = {}
    for crossing in crossings:
        offsets.setdefault(crossing.src, 0.0)
        offsets.setdefault(crossing.dst, 0.0)
        by_edge.setdefault((crossing.src, crossing.dst), []).append(crossing)
    pairs = {tuple(sorted(edge)) for edge in by_edge}
    for _ in range(_REFINE_PASSES):
        adjusted = False
        for a, b in sorted(pairs):
            forward = by_edge.get((a, b))
            backward = by_edge.get((b, a))
            if not forward or not backward:
                continue
            d_ab = min(
                c.received_at - offsets[b] - (c.sent_at - offsets[a]) for c in forward
            )
            d_ba = min(
                c.received_at - offsets[a] - (c.sent_at - offsets[b]) for c in backward
            )
            skew = (d_ab - d_ba) / 2.0
            if skew == 0.0:
                continue
            offsets[b] += skew / 2.0
            offsets[a] -= skew / 2.0
            adjusted = True
        if not adjusted:
            break
    return offsets


def extract_crossings(
    events_by_peer: Mapping[str, Iterable[TraceEvent]],
) -> list[Crossing]:
    """Matched send/receive pairs from the receive-side trace records.

    Every :data:`KIND_WIRE_RECV` event carries the sender's clock
    (``sent_at``, stamped into the wire meta at encode time), so one
    event is a complete crossing — no join against the sender's stream
    is needed.
    """
    crossings: list[Crossing] = []
    for peer, events in events_by_peer.items():
        for event in events:
            if event.kind != KIND_WIRE_RECV:
                continue
            detail = event.detail
            sent_at = detail.get("sent_at")
            src = detail.get("src")
            if sent_at is None or src is None:
                continue
            crossings.append(Crossing(str(src), peer, float(sent_at), event.time))
    return crossings


# ----------------------------------------------------------------------
# event alignment
# ----------------------------------------------------------------------
def align_events(
    events_by_peer: Mapping[str, Iterable[TraceEvent]],
    offsets: Mapping[str, float],
) -> MergedTrace:
    """Shift every peer's events onto the merged timeline and sort.

    Each peer's events get one constant offset subtracted, so per-peer
    ordering is preserved exactly; the final sort is stable, so
    same-timestamp events keep their within-peer order too.  For
    :data:`KIND_WIRE_RECV` events the sender's ``sent_at`` is rewritten
    to the aligned ``send_time`` (clamped to the receive time when
    residual skew would make latency negative — counted, never hidden).
    """
    merged = MergedTrace(events=[], offsets=dict(offsets))
    for peer, events in sorted(events_by_peer.items()):
        offset = float(offsets.get(peer, 0.0))
        count = 0
        for event in events:
            count += 1
            detail = event.detail
            if event.kind == KIND_WIRE_RECV and "sent_at" in detail:
                aligned_recv = event.time - offset
                src_offset = float(offsets.get(str(detail.get("src")), 0.0))
                send_time = float(detail["sent_at"]) - src_offset
                merged.crossings_matched += 1
                if send_time > aligned_recv:
                    merged.crossings_clamped += 1
                    send_time = aligned_recv
                detail = dict(detail)
                detail["send_time"] = send_time
            merged.events.append(
                TraceEvent(event.time - offset, event.source, event.kind, detail)
            )
        merged.events_by_peer[peer] = count
    merged.events.sort(key=lambda e: e.time)
    return merged


# ----------------------------------------------------------------------
# metric registries
# ----------------------------------------------------------------------
def _as_registry(source: "MetricsRegistry | Mapping[str, Any]") -> MetricsRegistry:
    if isinstance(source, MetricsRegistry):
        return source
    return MetricsRegistry.from_snapshot(source)


def merge_registries(
    per_peer: Mapping[str, "MetricsRegistry | Mapping[str, Any]"],
    *,
    label: str = "peer",
) -> MetricsRegistry:
    """One cluster-level registry: every instrument gains a peer label.

    ``per_peer`` maps a peer name to its registry (or its
    :meth:`~repro.obs.metrics.MetricsRegistry.to_snapshot` payload, as
    shipped over the control protocol).  Series from different peers
    can never collide — the added label disambiguates them — so this is
    a pure relabeling, not a numeric merge; use
    :func:`aggregate_registries` for cluster totals.
    """
    cluster = MetricsRegistry()
    for peer, source in sorted(per_peer.items()):
        registry = _as_registry(source)
        for metric in registry:
            labels = dict(metric.labels)
            if label in labels:
                raise ConfigurationError(
                    f"peer {peer!r} metric {metric.name!r} already carries the "
                    f"reserved merge label {label!r}={labels[label]!r}"
                )
            labels[label] = peer
            help_text = registry._help.get(metric.name, "")
            # Adopt through the snapshot path: sketch state is copied
            # verbatim (no float drift) and kind/name validation applies.
            cluster._insert_snapshot_entry(
                snapshot_entry(metric, help_text, labels.items())
            )
    return cluster


def aggregate_registries(
    sources: Iterable["MetricsRegistry | Mapping[str, Any]"],
) -> MetricsRegistry:
    """Collapse same-series instruments across inputs into totals.

    Counters sum (so the operation is associative and commutative up to
    float addition), gauges keep the last writer in input order, and
    quantile sketches merge level-wise via :meth:`QuantileSketch.merge`.
    Inputs disagreeing on a metric's *kind* are a configuration error,
    same as within one registry.
    """
    out = MetricsRegistry()
    for source in sources:
        registry = _as_registry(source)
        for metric in registry:
            labels = dict(metric.labels)
            help_text = registry._help.get(metric.name, "")
            if isinstance(metric, Counter):
                out.counter(metric.name, labels, help=help_text).inc(metric.value)
            elif isinstance(metric, Gauge):
                out.gauge(metric.name, labels, help=help_text).set(metric.value)
            elif isinstance(metric, QuantileSketch):
                kind = metric.kind
                known = out._kinds.get(metric.name)
                if known is not None and known != kind:
                    raise ConfigurationError(
                        f"metric {metric.name!r} is a {known}, not a {kind}"
                    )
                existing = out.get(metric.name, labels)
                if existing is None:
                    out._insert_snapshot_entry(
                        snapshot_entry(metric, help_text, labels.items())
                    )
                else:
                    existing.merge(metric)
    return out


def correct_edge_sketches(
    registry: MetricsRegistry, offsets: Mapping[str, float]
) -> int:
    """Apply clock-offset corrections to the edge latency sketches.

    A peer records edge latency as ``recv@dst_clock - sent@src_clock``;
    with per-peer offsets (peer clock minus the merged timeline) the
    true latency adds ``offsets[src] - offsets[dst]`` — one constant per
    directed edge, so shifting the finished sketch is *exact*, not an
    approximation.  Negative corrected values clamp to zero, mirroring
    :func:`align_events`.  Returns the number of sketches corrected.

    Mutates ``registry`` in place; call once, on the coordinator's
    aggregated registry, after :func:`estimate_offsets`.
    """
    from repro.obs.tails import EDGE_METRIC

    corrected = 0
    for sketch in registry.sketches():
        if sketch.name != EDGE_METRIC or sketch.count == 0:
            continue
        labels = dict(sketch.labels)
        src = labels.get("src")
        dst = labels.get("dst")
        if src is None or dst is None:
            continue
        delta_us = (
            float(offsets.get(src, 0.0)) - float(offsets.get(dst, 0.0))
        ) * 1e6
        sketch.shift(delta_us, floor=0.0)
        corrected += 1
    return corrected
