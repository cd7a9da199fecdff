"""Post-run trace analysis: ``python -m repro obs analyze trace.jsonl``.

Reads a trace exported by the observability plane (either the JSONL or
the Chrome trace-event format) and reconstructs the run's story:

* **queue-depth timelines** — total and per-node pending entries over
  time, from the sampler's ``obs.sample`` records;
* **NIC utilization timelines** — per-NIC busy fraction per sample
  interval;
* an **aggregation-opportunity miss summary** — from the optimizer's
  ``optimizer.decide`` records: how many dispatches had a *wider*
  candidate plan available (more segments aggregated) that lost on
  score, how the search budget was spent, which channels leave the
  most aggregation on the table, and how decisions split across the
  ``auto`` strategy's regimes;
* a **wire view**: exact per-edge one-way latency percentiles — the
  one place they are computed.  On a merged multi-process trace (see
  :mod:`repro.obs.merge`) a crossing is a correlated ``live.recv``
  record; on a simulated trace it is an ``rx.deliver`` closing the
  ``nic.send`` of the same ``{sender}#{packet}`` (the latest send, the
  first delivery).  Per-rail service time is read the same way: a
  ``nic.send`` opens its NIC's span, the next ``nic.idle`` closes it and
  a ``nic.fail`` drops it (an outage is not service time).  Beside them:
  the aggregation ratio achieved on each wire (segments per data
  packet, per ``src->dst`` edge), retransmit storms (bursts of
  ``rel.retransmit`` events), and hold-timer starvation (samples where
  a Nagle hold was armed while every NIC sat idle — traffic waiting on
  a timer with the wire free);
* with ``--scenario``, the exact multi-window SLO burn rates of the
  scenario's objectives over those crossings (``--check`` turns a
  violation, or a trace without crossings, into exit status 1).

Everything renders as ASCII so it works over SSH next to the
simulation; open the same file in https://ui.perfetto.dev for the
interactive version.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.causal import CausalReport, collector_report, truncation_warning
from repro.obs.export import load_events
from repro.obs.spans import SpanCollector
from repro.obs.tails import SLOStatus, TailStats, evaluate_slo_offline, parse_slo
from repro.util.stats import percentiles
from repro.util.tracing import TraceEvent
from repro.util.units import format_time

__all__ = [
    "TraceAnalysis",
    "analyze_events",
    "analyze_file",
    "summary_metrics",
    "main",
]

_BLOCKS = "▁▂▃▄▅▆▇█"

#: Retransmit events closer together than this (seconds) form a burst;
#: a burst of :data:`_STORM_SIZE` or more counts as a storm.
_STORM_GAP = 0.01
_STORM_SIZE = 3

#: Per-edge latency columns and the percentile each one reads.
_EDGE_TAILS = {"p50": 50.0, "p90": 90.0, "p99": 99.0, "p999": 99.9, "max": 100.0}


def _sparkline(values: list[float], width: int = 60) -> str:
    """Downsample to ``width`` buckets (bucket mean) and render blocks."""
    if not values:
        return ""
    if len(values) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max((i + 1) * len(values) // width, lo + 1)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    top = max(values)
    if top <= 0:
        return _BLOCKS[0] * len(values)
    return "".join(_BLOCKS[min(int(v / top * (len(_BLOCKS) - 1)), 7)] for v in values)


@dataclass
class _Series:
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> tuple[float, float]:
        """(time, value) of the maximum (0, 0 when empty)."""
        if not self.values:
            return (0.0, 0.0)
        i = max(range(len(self.values)), key=self.values.__getitem__)
        return (self.times[i], self.values[i])


@dataclass
class _Spans:
    """Timed durations (seconds): the one-way latencies of one
    ``src->dst`` wire edge, or the service times of one rail."""

    latencies: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)  #: end times (parallel)
    clamped: int = 0  #: crossings whose aligned latency was clamped to 0

    def add(self, duration: float, time: float) -> None:
        self.latencies.append(duration)
        self.times.append(time)

    def tails(self) -> dict[str, float]:
        """Exact latency columns (seconds), keyed as :data:`_EDGE_TAILS`."""
        values = percentiles(self.latencies, list(_EDGE_TAILS.values()))
        return dict(zip(_EDGE_TAILS, values))

    def stats(self) -> TailStats:
        """The same columns in microseconds, plus the mean (an entry of a
        live run's ``tails["edges"]`` or ``tails["rails"]``)."""
        tails = self.tails()
        return TailStats(
            self.count,
            *(tails[label] * 1e6 for label in ("p50", "p90", "p99", "p999")),
            sum(self.latencies) / self.count * 1e6,
            tails["max"] * 1e6,
        )

    @property
    def count(self) -> int:
        return len(self.latencies)


@dataclass
class _WireAgg:
    """Aggregation accounting for one ``src->dst`` wire edge."""

    data_packets: int = 0
    segments: int = 0
    payload_bytes: int = 0

    @property
    def ratio(self) -> float:
        return self.segments / self.data_packets if self.data_packets else 0.0


@dataclass
class TraceAnalysis:
    """Everything ``analyze`` learned from one trace."""

    n_events: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    span: tuple[float, float] = (0.0, 0.0)
    #: total backlog entries over time (from obs.sample).
    backlog: _Series = field(default_factory=_Series)
    #: node -> queue-depth series.
    node_depth: dict[str, _Series] = field(default_factory=dict)
    #: NIC -> busy-fraction series.
    nic_busy: dict[str, _Series] = field(default_factory=dict)
    retransmits: _Series = field(default_factory=_Series)
    #: decide-record accounting.
    decides: int = 0
    misses: int = 0
    width_sum: float = 0.0
    widest_sum: float = 0.0
    truncation: dict[str, int] = field(default_factory=dict)
    #: "node/channel" -> misses.
    miss_by_channel: dict[str, int] = field(default_factory=dict)
    #: regime label -> decide records carrying it (auto strategy).
    regimes: dict[str, int] = field(default_factory=dict)
    #: cross-peer view: "src->dst" -> correlated one-way latencies.
    edges: dict[str, _Spans] = field(default_factory=dict)
    #: NIC name -> service times, each a ``nic.send`` to its ``nic.idle``.
    rails: dict[str, _Spans] = field(default_factory=dict)
    #: "src->dst" -> per-wire aggregation accounting (from nic.send).
    wire_agg: dict[str, _WireAgg] = field(default_factory=dict)
    retransmit_count: int = 0
    retransmit_storms: int = 0
    #: obs.sample ticks where a hold timer was armed with every NIC idle.
    hold_starved_samples: int = 0
    hold_starved_streak: int = 0  #: longest consecutive run of the above
    samples: int = 0  #: obs.sample ticks seen
    #: causal attribution of every completed message (see obs.causal),
    #: with the flight-recorder accounting of an ``obs.truncated`` marker.
    report: CausalReport = field(default_factory=CausalReport)

    @property
    def miss_fraction(self) -> float:
        return self.misses / self.decides if self.decides else 0.0

    @property
    def crossings(self) -> int:
        """Correlated wire crossings (one-way latencies measured)."""
        return sum(edge.count for edge in self.edges.values())


def analyze_events(events: list[TraceEvent]) -> TraceAnalysis:
    """Run the full analysis over normalized trace events."""
    analysis = TraceAnalysis()
    analysis.n_events = len(events)
    if events:
        analysis.span = (events[0].time, max(e.time for e in events))
    retransmit_times: list[float] = []
    streak = 0
    spans = SpanCollector()
    #: "{sender}#{packet}" -> (send time, sender) of sim sends in flight.
    in_flight: dict[str, tuple[float, str]] = {}
    #: NIC source -> send time of the span it is serving.
    serving: dict[str, float] = {}
    for event in events:
        analysis.kinds[event.kind] = analysis.kinds.get(event.kind, 0) + 1
        spans.ingest(event)
        if event.kind == "obs.sample":
            starved = _ingest_sample(analysis, event)
            analysis.samples += 1
            streak = streak + 1 if starved else 0
            if starved:
                analysis.hold_starved_samples += 1
                analysis.hold_starved_streak = max(
                    analysis.hold_starved_streak, streak
                )
        elif event.kind == "optimizer.decide":
            _ingest_decide(analysis, event)
        elif event.kind == "live.recv":
            _ingest_crossing(analysis, event)
        elif event.kind == "nic.send":
            serving[event.source] = event.time
            _ingest_send(analysis, event, in_flight)
        elif event.kind == "nic.idle":
            sent = serving.pop(event.source, None)
            if sent is not None:
                rail = analysis.rails.setdefault(event.source.partition(":")[2], _Spans())
                rail.add(event.time - sent, event.time)
        elif event.kind == "nic.fail":
            serving.pop(event.source, None)
        elif event.kind == "rx.deliver":
            _ingest_deliver(analysis, event, in_flight)
        elif event.kind == "rel.retransmit":
            retransmit_times.append(event.time)
    analysis.retransmit_count = len(retransmit_times)
    analysis.retransmit_storms = _count_storms(retransmit_times)
    analysis.report = collector_report(spans)
    return analysis


def _count_storms(times: list[float]) -> int:
    """Bursts of >= _STORM_SIZE retransmits within _STORM_GAP gaps."""
    storms = 0
    burst = 0
    previous: float | None = None
    for t in sorted(times):
        burst = burst + 1 if previous is not None and t - previous <= _STORM_GAP else 1
        if burst == _STORM_SIZE:  # count each burst once, as it forms
            storms += 1
        previous = t
    return storms


def _ingest_sample(analysis: TraceAnalysis, event: TraceEvent) -> bool:
    """Ingest one sampler tick; returns True when it shows hold starvation
    (a Nagle hold armed while every sampled NIC sat idle)."""
    detail = event.detail
    t = event.time
    backlog = detail.get("backlog")
    if backlog is not None:
        analysis.backlog.add(t, backlog)
    per_node: dict[str, float] = {}
    for key, pair in (detail.get("queues") or {}).items():
        node = str(key).split("/", 1)[0]
        per_node[node] = per_node.get(node, 0.0) + pair[0]
    for node, depth in per_node.items():
        analysis.node_depth.setdefault(node, _Series()).add(t, depth)
    busy = detail.get("nic_busy") or {}
    for nic_name, fraction in busy.items():
        analysis.nic_busy.setdefault(nic_name, _Series()).add(t, fraction)
    retrans = detail.get("retransmits_in_flight")
    if retrans is not None:
        analysis.retransmits.add(t, retrans)
    holds = detail.get("holds_armed") or 0
    return bool(holds) and bool(busy) and max(busy.values()) == 0.0


def _add_crossing(
    analysis: TraceAnalysis, src: str, dst: str, send_time: float, time: float
) -> None:
    """One wire crossing of the ``src->dst`` edge, received at ``time``."""
    edge = analysis.edges.setdefault(f"{src}->{dst}", _Spans())
    latency = time - send_time
    if latency < 0:  # unaligned raw clocks can do this; never report it
        latency = 0.0
        edge.clamped += 1
    edge.add(latency, time)


def _ingest_crossing(analysis: TraceAnalysis, event: TraceEvent) -> None:
    """One correlated wire crossing (live.recv with a send timestamp)."""
    detail = event.detail
    src = detail.get("src")
    send_time = detail.get("send_time", detail.get("sent_at"))
    if src is None or send_time is None:
        return
    dst = detail.get("dst") or event.source.partition(":")[2] or "?"
    _add_crossing(analysis, src, dst, float(send_time), event.time)


def _ingest_deliver(
    analysis: TraceAnalysis, event: TraceEvent, in_flight: dict
) -> None:
    """A sim delivery closes the send of its ``{sender}#{packet}`` (live
    deliveries carry ``corr``; their crossing is the ``live.recv``)."""
    detail = event.detail
    if detail.get("corr") is not None:
        return
    sent = in_flight.pop(f"{detail.get('src')}#{detail.get('packet')}", None)
    if sent is not None:
        _add_crossing(
            analysis, sent[1], event.source.partition(":")[2], sent[0], event.time
        )


def _ingest_send(
    analysis: TraceAnalysis, event: TraceEvent, in_flight: dict
) -> None:
    """A sim send opens a crossing; a data packet also counts toward its
    wire's aggregation."""
    detail = event.detail
    node = event.source.partition(":")[2].split(".", 1)[0]
    if detail.get("corr") is None:
        in_flight[f"{node}#{detail.get('packet')}"] = (event.time, node)
    if detail.get("packet_kind") != "data":
        return
    dst = detail.get("dst")
    if dst is None or not node:
        return
    wire = analysis.wire_agg.setdefault(f"{node}->{dst}", _WireAgg())
    wire.data_packets += 1
    wire.segments += int(detail.get("segments", 0) or 0)
    wire.payload_bytes += int(detail.get("bytes", 0) or 0)


def _ingest_decide(analysis: TraceAnalysis, event: TraceEvent) -> None:
    detail = event.detail
    analysis.decides += 1
    items = detail.get("items", 0) or 0
    widest = detail.get("widest_items")
    analysis.width_sum += items
    if widest is not None:
        analysis.widest_sum += widest
        if widest > items:
            analysis.misses += 1
            node = event.source.partition(":")[2]
            channel = detail.get("channel", "?")
            key = f"{node}/{channel}"
            analysis.miss_by_channel[key] = analysis.miss_by_channel.get(key, 0) + 1
    truncation = detail.get("truncation")
    if truncation is not None:
        analysis.truncation[truncation] = analysis.truncation.get(truncation, 0) + 1
    regime = detail.get("regime")
    if regime is not None:
        analysis.regimes[regime] = analysis.regimes.get(regime, 0) + 1


def analyze_file(path: str | Path) -> TraceAnalysis:
    """Load a trace file (JSONL or Chrome JSON) and analyze it."""
    return analyze_events(load_events(path))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render(analysis: TraceAnalysis, *, width: int = 60, top: int = 5) -> str:
    """ASCII report of an analysis: timelines + decision summary."""
    lines: list[str] = []
    report = analysis.report
    if report.truncated:
        lines.append(truncation_warning(report.trace_dropped, report.trace_seen))
        lines.append("")
    t0, t1 = analysis.span
    lines.append(
        f"events: {analysis.n_events}  kinds: {len(analysis.kinds)}  "
        f"span: {format_time(t0)} … {format_time(t1)}"
    )

    if analysis.backlog.values:
        lines.append("")
        lines.append("queue depth (pending entries):")
        peak_t, peak_v = analysis.backlog.peak
        lines.append(
            f"  total {'':<10} {_sparkline(analysis.backlog.values, width)} "
            f"peak {peak_v:.0f} @ {format_time(peak_t)}  mean {analysis.backlog.mean:.1f}"
        )
        for node in sorted(analysis.node_depth):
            series = analysis.node_depth[node]
            _, peak_v = series.peak
            lines.append(
                f"  {node:<16} {_sparkline(series.values, width)} "
                f"peak {peak_v:.0f}  mean {series.mean:.1f}"
            )
    else:
        lines.append("")
        lines.append(
            "queue depth: no obs.sample records "
            "(run with observability.sample_interval or --sample-interval)"
        )

    if analysis.nic_busy:
        lines.append("")
        lines.append("NIC utilization (busy fraction per sample interval):")
        for nic_name in sorted(analysis.nic_busy):
            series = analysis.nic_busy[nic_name]
            lines.append(
                f"  {nic_name:<16} {_sparkline(series.values, width)} "
                f"mean {series.mean:6.1%}"
            )
    if analysis.retransmits.values and max(analysis.retransmits.values) > 0:
        lines.append("")
        series = analysis.retransmits
        lines.append(
            f"retransmits in flight: {_sparkline(series.values, width)} "
            f"peak {series.peak[1]:.0f}"
        )

    for title, table in (
        ("cross-peer wire crossings (correlated one-way latency):", analysis.edges),
        ("NIC service time (send to idle):", analysis.rails),
    ):
        if not table:
            continue
        lines.append("")
        lines.append(title)
        name_width = max(len(name) for name in table)
        for name in sorted(table):
            spans = table[name]
            clamp = f"  clamped {spans.clamped}" if spans.clamped else ""
            columns = "  ".join(
                f"{label} {format_time(value)}" for label, value in spans.tails().items()
            )
            lines.append(f"  {name:<{name_width}}  n={spans.count:<6} {columns}{clamp}")

    if analysis.wire_agg:
        lines.append("")
        lines.append("aggregation per wire (segments per data packet):")
        name_width = max(len(w) for w in analysis.wire_agg)
        for wire_name in sorted(analysis.wire_agg):
            wire = analysis.wire_agg[wire_name]
            lines.append(
                f"  {wire_name:<{name_width}}  ratio {wire.ratio:5.2f}  "
                f"({wire.segments} segments / {wire.data_packets} packets, "
                f"{wire.payload_bytes} B)"
            )

    if analysis.retransmit_count:
        lines.append("")
        lines.append(
            f"retransmit events: {analysis.retransmit_count} "
            f"({analysis.retransmit_storms} storm(s): >= {_STORM_SIZE} within "
            f"{_STORM_GAP * 1e3:.0f} ms gaps)"
        )
    if analysis.hold_starved_samples:
        lines.append("")
        lines.append(
            f"hold-timer starvation: {analysis.hold_starved_samples}/"
            f"{analysis.samples} samples had a Nagle hold armed with every "
            f"NIC idle (longest streak {analysis.hold_starved_streak})"
        )

    blame = report.edges()
    if blame:
        lines.append("")
        lines.append(
            f"causal blame per edge ({len(report.messages)} message(s) "
            f"attributed, {report.incomplete} incomplete; "
            "see 'obs why' for waterfalls):"
        )
        name_width = max(len(e) for e in blame)
        for edge_name in sorted(blame):
            slot = blame[edge_name]
            dominant = sorted(
                (
                    (bucket, frac)
                    for bucket, frac in slot["fractions"].items()
                    if frac > 0
                ),
                key=lambda kv: -kv[1],
            )[:3]
            parts = "  ".join(f"{b}={f:.1%}" for b, f in dominant)
            lines.append(
                f"  {edge_name:<{name_width}}  n={slot['messages']:<5} "
                f"{parts or 'all zero'}"
            )

    lines.append("")
    lines.append("aggregation opportunities (optimizer.decide records):")
    if analysis.decides:
        lines.append(f"  dispatches with decide records : {analysis.decides}")
        lines.append(
            f"  wider plan existed but lost    : {analysis.misses} "
            f"({analysis.miss_fraction:.1%})"
        )
        lines.append(
            f"  mean winning width             : "
            f"{analysis.width_sum / analysis.decides:.2f} segments"
        )
        if analysis.widest_sum:
            lines.append(
                f"  mean widest candidate          : "
                f"{analysis.widest_sum / analysis.decides:.2f} segments"
            )
        if analysis.truncation:
            spent = "  ".join(
                f"{reason}={count}" for reason, count in sorted(analysis.truncation.items())
            )
            lines.append(f"  search stopped by              : {spent}")
        if analysis.miss_by_channel:
            offenders = sorted(
                analysis.miss_by_channel.items(), key=lambda kv: -kv[1]
            )[:top]
            lines.append("  most-missed channels           : " + ", ".join(
                f"{key} ×{count}" for key, count in offenders
            ))
        if analysis.regimes:
            by_regime = "  ".join(
                f"{regime}={count}"
                for regime, count in sorted(analysis.regimes.items())
            )
            lines.append(f"  decisions by regime            : {by_regime}")
    else:
        lines.append(
            "  no decide records (use the 'search' strategy with tracing on)"
        )
    return "\n".join(lines)


def summary_metrics(analysis: TraceAnalysis) -> dict[str, float]:
    """Flatten an analysis into the scalar map ``obs diff`` compares.

    Keys are stable identifiers (``edge/n0->n1/latency_p50_us``), values
    plain floats, so two analyses — or an analysis and a checked-in
    baseline — diff mechanically.
    """
    out: dict[str, float] = {
        "trace/events": float(analysis.n_events),
        "trace/samples": float(analysis.samples),
        "decide/records": float(analysis.decides),
        "decide/miss_fraction": analysis.miss_fraction,
        "retransmit/events": float(analysis.retransmit_count),
        "retransmit/storms": float(analysis.retransmit_storms),
        "hold/starved_samples": float(analysis.hold_starved_samples),
        "hold/starved_streak": float(analysis.hold_starved_streak),
        "crossings/total": float(analysis.crossings),
        "crossings/clamped": float(
            sum(edge.clamped for edge in analysis.edges.values())
        ),
    }
    if analysis.backlog.values:
        out["backlog/mean"] = analysis.backlog.mean
        out["backlog/peak"] = analysis.backlog.peak[1]
    for edge_name, edge in sorted(analysis.edges.items()):
        prefix = f"edge/{edge_name}"
        out[f"{prefix}/crossings"] = float(edge.count)
        for label, value in edge.tails().items():
            out[f"{prefix}/latency_{label}_us"] = value * 1e6
    for wire_name, wire in sorted(analysis.wire_agg.items()):
        prefix = f"wire/{wire_name}"
        out[f"{prefix}/ratio"] = wire.ratio
        out[f"{prefix}/data_packets"] = float(wire.data_packets)
        out[f"{prefix}/segments"] = float(wire.segments)
    report = analysis.report
    out["blame/messages"] = float(len(report.messages))
    if report.trace_dropped:
        out["trace/dropped"] = float(report.trace_dropped)
    for edge_name, slot in sorted(report.edges().items()):
        for bucket, fraction in sorted(slot["fractions"].items()):
            out[f"blame/{edge_name}/{bucket}_fraction"] = fraction
    return out


def render_slo(statuses: list[SLOStatus]) -> str:
    """One line per (objective, edge) burn-rate verdict."""
    if not statuses:
        return "SLO: no objectives matched any edge"
    lines = ["SLO burn rates (burn >= 1 in every window = violation):"]
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
    """Entry point for ``python -m repro obs analyze``.

    ``--scenario`` adds the exact multi-window burn rates of that
    scenario's ``observability.slo`` objectives; ``--check`` exits 1
    when no wire crossing was correlated or an objective is violated.
    """
    path = Path(args.trace)
    statuses: list[SLOStatus] = []
    try:
        print(f"== observability analysis: {path} ==")
        analysis = analyze_file(path)
        print(render(analysis, width=args.width, top=args.top))
        if args.scenario:
            spec = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
            objectives = parse_slo(spec.get("observability", {}).get("slo"))
            statuses = evaluate_slo_offline(
                analysis.edges, objectives, t_end=analysis.span[1]
            )
            print()
            print(render_slo(statuses))
        report = analysis.report
        if report.truncated:
            print(
                truncation_warning(report.trace_dropped, report.trace_seen),
                file=sys.stderr,
            )
    except BrokenPipeError:  # e.g. piped into head; not an error
        return 0
    if args.check:
        if not analysis.edges:
            print("FAIL: --check requires at least one correlated edge")
            return 1
        violated = [s for s in statuses if s.violated]
        if violated:
            print(f"FAIL: {len(violated)} SLO violation(s)")
            return 1
    return 0
