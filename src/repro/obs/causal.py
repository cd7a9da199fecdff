"""Causal latency attribution: why was this message late?

This module attributes every microsecond of a message's end-to-end
latency, read from its :class:`~repro.obs.spans.MessageChain`, to a
named blame bucket:

``hold``
    Waiting on the sender while the Nagle hold timer was armed — the
    scheduler *chose* to delay for aggregation.
``rdv``
    Parked in the rendezvous handshake (REQ sent, ACK not yet back).
``nic_queue``
    Queued at the sender for a busy/failed NIC (everything else between
    submit and first ``nic.send`` of the critical packet).
``service``
    The critical packet's own NIC occupancy (serialization/DMA).
``wire``
    Physical propagation: send to arrival, minus service and
    retransmit cycles.
``retransmit``
    Time burned in loss-recovery rounds (send to the *last*
    retransmission of the critical packet).
``reorder``
    Held in the receiver's reorder buffer behind a missing sequence.
``unattributed``
    The explicit residual: ``e2e - sum(everything above)``.  Always
    present, so bucket sums equal measured end-to-end latency *by
    construction* — a large residual means the trace is missing span
    boundaries, not that time silently vanished.

Critical-path rule: a message aggregated into several packets (or
striped over several rails) completes when its **slowest** leg delivers;
blame is attributed along that leg only — latencies do not add across
parallel legs.

Blame is attributed after the run, from the trace — the one place a
message's whole chain is visible — by the one fold over it,
:func:`repro.obs.analyze.analyze_events`, which calls
:func:`attribute_chain` on every closed chain.  Its ``report`` is what
the plane's ``finalize`` (a simulated run's own sink), the live
coordinator (the merged trace), ``obs analyze`` and ``obs why``
(:func:`main`, per-message waterfalls from any trace file) read, and
:func:`export_blame` writes its per-edge sums to a registry.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping, Sequence

from repro.obs.spans import (
    Leg,
    MessageChain,
    interval_overlap,
    merge_intervals,
    subtract_intervals,
    total_length,
)
from repro.util.tracing import TraceEvent

__all__ = [
    "BLAME_BUCKETS",
    "MessageBlame",
    "CausalReport",
    "attribute_chain",
    "attribute_events",
    "export_blame",
    "render_waterfall",
    "render_report",
    "main",
]

BLAME_BUCKETS = (
    "hold",
    "rdv",
    "nic_queue",
    "service",
    "wire",
    "retransmit",
    "reorder",
    "unattributed",
)

BLAME_SECONDS_METRIC = "repro_blame_seconds_total"
BLAME_FRACTION_METRIC = "repro_blame_fraction"


@dataclass(slots=True)
class MessageBlame:
    """One message's end-to-end latency, fully attributed."""

    key: str
    flow: str | None
    src: str
    dst: str
    bytes: int
    submit_t: float
    complete_t: float
    e2e: float
    buckets: dict[str, float]
    #: The leg blame was attributed along (None: no leg delivered).
    critical: Leg | None = None
    #: The chain's packet legs, in dispatch order.
    chain_legs: list[Leg] = field(default_factory=list)

    @property
    def edge(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def critical_leg(self) -> str | None:
        """The critical leg's key."""
        return self.critical.key if self.critical is not None else None

    @property
    def legs(self) -> list[dict[str, Any]]:
        """One row per leg, built when read: only ``to_dict``, ``obs why``
        and waterfalls ask, so the trace fold never pays for it."""
        crit = self.critical
        return [
            {
                "leg": leg.key,
                "nic": leg.nic,
                "kind": leg.packet_kind,
                "bytes": leg.bytes,
                "send_t": leg.send_t,
                "deliver_t": leg.done_t,
                "retransmits": len(leg.retransmits),
                "reordered": leg.reorder_enter_t is not None,
                "critical": leg is crit,
            }
            for leg in self.chain_legs
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready shape (seconds-suffixed keys for the buckets)."""
        return {
            "message": self.key,
            "flow": self.flow,
            "edge": self.edge,
            "bytes": self.bytes,
            "submit_t": self.submit_t,
            "complete_t": self.complete_t,
            "e2e_s": self.e2e,
            "buckets_s": dict(self.buckets),
            "critical_leg": self.critical_leg,
            "legs": self.legs,
        }


def _balanced(buckets: dict[str, float], total: float) -> dict[str, float]:
    """Force ``sum(buckets) == total`` exactly, residual in unattributed.

    The named buckets are clipped partitions of disjoint sub-intervals
    of ``[submit, complete]``, so the residual is non-negative up to
    float rounding; any tiny negative residual is shaved off the largest
    named bucket rather than reported as negative time.
    """
    buckets["unattributed"] = 0.0
    residual = total - sum(buckets.values())
    if residual < 0.0:
        largest = max(
            (k for k in buckets if k != "unattributed"), key=buckets.__getitem__
        )
        buckets[largest] += residual  # residual is a tiny fp negative
        residual = 0.0
    buckets["unattributed"] = residual
    return buckets


_window_start = itemgetter(0)


def _clipped(
    windows: Sequence[tuple[float, float | None]], lo: float, hi: float
) -> list[tuple[float, float]]:
    """Union of ``windows`` within ``[lo, hi]``; open windows end at ``hi``."""
    if not windows:
        return []
    if len(windows) == 1:  # the usual case: what the merge and clip give
        start, end = windows[0]
        lo, hi = max(start, lo), min(end if end is not None else hi, hi)
        return [(lo, hi)] if hi > lo else []
    closed = ((start, end if end is not None else hi) for start, end in windows)
    return interval_overlap(merge_intervals(closed), lo, hi)


def attribute_chain(
    chain: MessageChain,
    hold_windows: Mapping[str, list[tuple[float, float | None]]] | None = None,
) -> MessageBlame | None:
    """Attribute one completed chain; None when it never completed.
    ``hold_windows`` (``TraceAnalysis.hold_windows``) holds, per node,
    start-sorted disjoint ``(arm_t, fire_t | None)`` windows."""
    complete_t = chain.complete_t
    if complete_t is None:
        return None
    t0 = chain.submit_t
    t1 = max(complete_t, t0)
    total = t1 - t0
    # The critical leg: the (first) one whose payload arrived last.
    crit, crit_done = None, None
    for leg in chain.legs:
        done = leg.done_t
        if done is not None and (crit is None or done > crit_done):
            crit, crit_done = leg, done
    if crit is None:
        buckets = dict.fromkeys(BLAME_BUCKETS, 0.0)
    else:
        send = crit.send_t if crit.send_t is not None else crit.dispatch_t
        send = min(max(send if send is not None else t0, t0), t1)
        deliver = min(max(crit_done, send), t1)
        # -- queue span [t0, send]: rdv beats hold beats nic_queue ------
        rdv = _clipped(chain.rdv_windows, t0, send)
        hold: list[tuple[float, float]] = []
        windows = hold_windows.get(chain.src) if hold_windows else None
        if windows:
            # Only the window straddling t0 (if any) through the last one
            # armed before `send` can overlap the queue span.
            first = max(bisect_right(windows, t0, key=_window_start) - 1, 0)
            last = bisect_left(windows, send, key=_window_start)
            if last > first:
                hold = _clipped(windows[first:last], t0, send)
                if rdv:
                    hold = subtract_intervals(hold, rdv)
        rdv_s = total_length(rdv) if rdv else 0
        hold_s = total_length(hold) if hold else 0
        # -- transit span [send, arrival]: retransmit, service, wire ----
        arrival = crit.arrival_t
        t_phys = min(max(arrival if arrival is not None else deliver, send), deliver)
        transit = t_phys - send
        retransmit = 0.0
        if crit.retransmits:
            rounds = [t for t in crit.retransmits if send < t <= t_phys]
            if rounds:
                retransmit = min(max(rounds) - send, transit)
        service = max(min(crit.occupancy or 0.0, transit - retransmit), 0.0)
        buckets = {
            "hold": hold_s,
            "rdv": rdv_s,
            "nic_queue": max((send - t0) - rdv_s - hold_s, 0.0),
            "service": service,
            "wire": max(transit - retransmit - service, 0.0),
            "retransmit": retransmit,
            # -- receive span [arrival, deliver]: reorder-buffer residency
            "reorder": max(deliver - t_phys, 0.0),
            "unattributed": 0.0,
        }
    return MessageBlame(
        chain.key,
        chain.flow,
        chain.src,
        chain.dst or "?",
        chain.bytes,
        t0,
        t1,
        total,
        _balanced(buckets, total),
        crit,
        chain.legs,
    )


# ----------------------------------------------------------------------
# report over a whole trace
# ----------------------------------------------------------------------
def _fold(edges: dict[str, dict[str, Any]], blame: MessageBlame) -> dict[str, Any]:
    """Add one message to its edge's running sums; returns the edge's slot."""
    edge = blame.edge
    slot = edges.get(edge)
    if slot is None:
        slot = edges[edge] = {
            "messages": 0,
            "e2e_s": 0.0,
            "buckets_s": dict.fromkeys(BLAME_BUCKETS, 0.0),
        }
    slot["messages"] += 1
    slot["e2e_s"] += blame.e2e
    sums = slot["buckets_s"]
    for bucket, value in blame.buckets.items():
        sums[bucket] += value
    return slot


def _fractions(slot: Mapping[str, Any]) -> dict[str, float]:
    """Each bucket's share of an edge slot's summed end-to-end latency."""
    e2e = slot["e2e_s"]
    return {
        bucket: (value / e2e if e2e > 0 else 0.0)
        for bucket, value in slot["buckets_s"].items()
    }


@dataclass(slots=True)
class CausalReport:
    """Attribution for every completed message in one trace."""

    messages: list[MessageBlame] = field(default_factory=list)
    incomplete: int = 0
    trace_seen: int | None = None
    trace_dropped: int = 0

    @property
    def truncated(self) -> bool:
        return self.trace_dropped > 0

    def edges(self) -> dict[str, dict[str, Any]]:
        """Per-edge blame sums and fractions."""
        out: dict[str, dict[str, Any]] = {}
        for blame in self.messages:
            _fold(out, blame)
        for slot in out.values():
            slot["fractions"] = _fractions(slot)
        return out

    def slowest(self, k: int) -> list[MessageBlame]:
        """The ``k`` highest-latency attributed messages."""
        return sorted(self.messages, key=lambda b: b.e2e, reverse=True)[:k]

    def summary(self, slowest: int = 5) -> dict[str, Any]:
        """Counts, per-edge rollup and the ``slowest`` waterfalls (a live
        run's ``tails["blame"]`` and the ``/why`` payload)."""
        return {
            "messages": len(self.messages),
            "incomplete": self.incomplete,
            "truncated": self.truncated,
            "edges": self.edges(),
            "slowest": [b.to_dict() for b in self.slowest(slowest)],
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready shape: every message plus the per-edge rollup."""
        return {
            "messages": [b.to_dict() for b in self.messages],
            "edges": self.edges(),
            "incomplete": self.incomplete,
            "truncated": self.truncated,
            "trace_dropped": self.trace_dropped,
            "trace_seen": self.trace_seen,
        }


def export_blame(
    edges: Mapping[str, Mapping[str, Any]], registry
) -> None:
    """Mirror per-edge blame sums and fractions into a metrics registry.

    ``edges`` is the :meth:`CausalReport.edges` shape: ``{edge:
    {"e2e_s": ..., "buckets_s": {bucket: seconds}}}``.  Writes
    ``repro_blame_seconds_total`` (counter) and ``repro_blame_fraction``
    (gauge) per (edge, bucket).
    """
    for edge, slot in edges.items():
        e2e = slot["e2e_s"]
        for bucket, value in slot["buckets_s"].items():
            registry.counter(
                BLAME_SECONDS_METRIC,
                {"edge": edge, "bucket": bucket},
                help="Attributed end-to-end latency per blame bucket",
            ).set_total(value)
            registry.gauge(
                BLAME_FRACTION_METRIC,
                {"edge": edge, "bucket": bucket},
                help="Fraction of end-to-end latency per blame bucket",
            ).set(value / e2e if e2e > 0 else 0.0)


def attribute_events(events: list[TraceEvent]) -> CausalReport:
    """The blame of a whole trace: ``analyze_events(events).report``."""
    from repro.obs.analyze import analyze_events

    return analyze_events(events).report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _us(seconds: float) -> str:
    return f"{seconds * 1e6:,.2f} us"


def render_waterfall(blame: MessageBlame, width: int = 44) -> str:
    """One message's blame as an ASCII waterfall."""
    lines = [
        f"message {blame.key}  flow={blame.flow or '?'}  {blame.edge}  "
        f"{blame.bytes} B  e2e {_us(blame.e2e)}"
    ]
    for bucket in BLAME_BUCKETS:
        value = blame.buckets.get(bucket, 0.0)
        if value <= 0.0 and bucket != "unattributed":
            continue
        frac = value / blame.e2e if blame.e2e > 0 else 0.0
        bar = "#" * max(round(frac * width), 1 if value > 0 else 0)
        lines.append(
            f"  {bucket:<12} {_us(value):>16}  {frac:>6.1%}  |{bar}"
        )
    for leg in blame.legs:
        marker = "*" if leg["critical"] else " "
        rtx = f" rtx={leg['retransmits']}" if leg["retransmits"] else ""
        reorder = " reordered" if leg["reordered"] else ""
        lines.append(
            f"  {marker}leg {leg['leg']} via {leg['nic'] or '?'} "
            f"({leg['kind'] or '?'}, {leg['bytes']} B){rtx}{reorder}"
        )
    return "\n".join(lines)


def truncation_warning(dropped: int, seen: int | None) -> str:
    """The loud eviction warning ``obs analyze``/``obs why`` print."""
    total = f" of {seen} recorded" if seen else ""
    return (
        "WARNING: trace is TRUNCATED — the flight recorder evicted "
        f"{dropped} event(s){total}; spans that started before the "
        "ring buffer's horizon are missing or incomplete. Attribution "
        "below covers only the surviving window."
    )


def render_report(
    report: CausalReport,
    *,
    slowest: int = 5,
    message: str | None = None,
    edge: str | None = None,
) -> str:
    """Human-readable blame report: per-edge table plus waterfalls."""
    lines: list[str] = []
    if report.truncated:
        lines.append(truncation_warning(report.trace_dropped, report.trace_seen))
        lines.append("")
    selected = report.messages
    if edge is not None:
        wanted = edge.replace(":", "->", 1) if "->" not in edge else edge
        selected = [b for b in selected if b.edge == wanted]
    if message is not None:
        selected = [
            b
            for b in selected
            if b.key == message or b.key.rpartition("#m")[2] == message
        ]
        if not selected:
            lines.append(f"no attributed message matches {message!r}")
    else:
        selected = sorted(selected, key=lambda b: b.e2e, reverse=True)[:slowest]
    lines.append(
        f"== causal attribution: {len(report.messages)} message(s), "
        f"{report.incomplete} incomplete =="
    )
    edges = report.edges()
    if edges:
        lines.append("")
        lines.append("per-edge blame fractions:")
        header = f"  {'edge':<14} {'msgs':>5} {'e2e':>14}" + "".join(
            f" {b:>11}" for b in BLAME_BUCKETS
        )
        lines.append(header)
        for name in sorted(edges):
            slot = edges[name]
            row = (
                f"  {name:<14} {slot['messages']:>5} {_us(slot['e2e_s']):>14}"
            )
            for bucket in BLAME_BUCKETS:
                row += f" {slot['fractions'][bucket]:>10.1%}"
            lines.append(row)
    for blame in selected:
        lines.append("")
        lines.append(render_waterfall(blame))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI: python -m repro obs why
# ----------------------------------------------------------------------
def main(args) -> int:
    """Entry point for ``python -m repro obs why``."""
    from repro.obs.analyze import analyze_file

    report = analyze_file(args.trace).report
    if getattr(args, "json", False):
        payload = report.to_dict()
        if args.message is None:
            payload["messages"] = [
                b.to_dict() for b in report.slowest(args.slowest)
            ]
        print(json.dumps(payload, indent=2))
    else:
        print(
            render_report(
                report,
                slowest=args.slowest,
                message=args.message,
                edge=args.edge,
            )
        )
    if report.truncated:
        print(
            truncation_warning(report.trace_dropped, report.trace_seen),
            file=sys.stderr,
        )
    return 0 if report.messages else 1
