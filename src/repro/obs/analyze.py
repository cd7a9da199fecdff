"""The one pass over a finished trace: ``python -m repro obs analyze``.

:func:`analyze_events` folds a time-ordered event list (a run's own
recorder, a JSONL trace file, or the live coordinator's merged
trace) through one ``kind -> handler`` table, so every event is
parsed once, and returns a :class:`TraceAnalysis` holding:

* **span chains** — one :class:`~repro.obs.causal.MessageChain` per
  message (``collect.enqueue`` opens it, ``message.complete`` closes it)
  over packet :class:`~repro.obs.causal.Leg`\\ s keyed
  ``"{sender}#{packet}"``, the wire correlation id the live plane stamps
  into frames, so sim and merged live traces resolve alike.  A leg
  learns its slices from ``engine.dispatch`` and its timestamps from
  ``nic.send`` / ``rel.*`` / ``reorder.*`` / ``live.recv`` /
  ``rx.deliver``; a chain whose delivered bytes cover it but whose
  ``message.complete`` is missing (a truncated trace) is closed at its
  last delivery; one still open at the end, or evicted past
  :data:`_PENDING_CAP`, counts as incomplete.  Every closed chain is attributed
  (:func:`~repro.obs.causal.attribute_chain`) into :attr:`report`, the
  blame that ``ObservabilityPlane.registry`` (attributed when the
  registry is first read), ``obs why`` and the live coordinator read;
* **per-edge one-way latency**, exact — the one place it is computed.
  On a merged live trace a crossing is a correlated ``live.recv``; on a
  simulated one it is an ``rx.deliver`` closing its leg's latest
  ``nic.send`` (the latest send, the first delivery after it);
* **per-rail service time**: a ``nic.send`` opens its NIC's span, the
  next ``nic.idle`` closes it and a ``nic.fail`` drops it (an outage is
  not service time);
* the **decision summary** of ``optimizer.decide`` records (dispatches
  where a wider candidate lost on score, search truncation, the ``auto``
  strategy's regimes), **retransmit storms** (bursts of
  ``rel.retransmit``), and from ``obs.sample`` ticks the queue-depth and
  NIC-busy timelines plus **hold-timer starvation** (a Nagle hold armed
  while every NIC sat idle);
* with ``--scenario``, the exact multi-window SLO burn rates of the
  scenario's objectives over the crossings (``--check`` turns a
  violation, or a trace without crossings, into exit status 1).

:func:`tails_payload` is the one view of an analysis as a live run
reports it: ``GET /tails``, ``LiveRunResult.tails`` and the SLO block of
``obs analyze --scenario`` all read it.

Everything renders as ASCII so it works over SSH next to the
simulation; for the interactive version, write the run's trace as
Chrome JSON and open it in https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.causal import (
    CausalReport,
    Leg,
    MessageChain,
    attribute_chain,
    blame_table,
    truncation_warning,
)
from repro.obs.export import load_events
from repro.util.stats import percentiles
from repro.util.tracing import ABSENT, TraceEvent
from repro.util.units import format_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.plane import SLObjective

__all__ = [
    "TraceAnalysis",
    "analyze_events",
    "analyze_file",
    "summary_metrics",
    "SUMMARY_BETTER",
    "tails_payload",
    "main",
]

_BLOCKS = "▁▂▃▄▅▆▇█"

#: Retransmit events closer together than this (seconds) form a burst;
#: a burst of :data:`_STORM_SIZE` or more counts as a storm.
_STORM_GAP = 0.01
_STORM_SIZE = 3

#: Per-edge latency columns (``stats()`` keys ``{label}_us``) and the
#: percentile each one reads.
_EDGE_TAILS = {"p50": 50.0, "p90": 90.0, "p99": 99.0, "p999": 99.9, "max": 100.0}

#: Bound on open (not yet completed) chains and on legs; beyond it the
#: oldest is evicted FIFO so a runaway trace cannot grow memory.
_PENDING_CAP = 65536

_time = itemgetter(0)
_kind = itemgetter(2)


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
    clamped: int = 0  #: crossings whose latency was clamped to 0

    def stats(self) -> dict[str, float]:
        """The exact :data:`_EDGE_TAILS` columns in microseconds, plus the
        count and the mean: an entry of a live run's ``tails["edges"]`` or
        ``tails["rails"]``, and the one tail shape of a span table."""
        p50, p90, p99, p999, top = percentiles(self.latencies, list(_EDGE_TAILS.values()))
        return {
            "count": self.count,
            "p50_us": p50 * 1e6,
            "p90_us": p90 * 1e6,
            "p99_us": p99 * 1e6,
            "p999_us": p999 * 1e6,
            "mean_us": sum(self.latencies) / self.count * 1e6,
            "max_us": top * 1e6,
        }

    @property
    def count(self) -> int:
        return len(self.latencies)


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
    retransmit_count: int = 0
    retransmit_storms: int = 0
    #: obs.sample ticks where a hold timer was armed with every NIC idle.
    hold_starved_samples: int = 0
    hold_starved_streak: int = 0  #: longest consecutive run of the above
    samples: int = 0  #: obs.sample ticks seen
    #: ``(sender, message_id)`` -> chains left open (never covered).
    chains: dict[tuple[str, int], MessageChain] = field(default_factory=dict)
    #: ``"{sender}#{packet}"`` -> every packet leg seen.
    legs: dict[str, Leg] = field(default_factory=dict)
    #: Closed chains, in completion order.
    completed: list[MessageChain] = field(default_factory=list)
    #: node -> ``(arm_t, fire_t | None)`` hold-timer windows.  One timer
    #: per node: start-sorted, disjoint, only the last can be open.
    hold_windows: dict[str, list[tuple[float, float | None]]] = field(
        default_factory=dict
    )
    evicted_chains: int = 0
    #: causal attribution of every closed chain (see obs.causal), with
    #: the flight-recorder accounting of an ``obs.truncated`` marker.
    report: CausalReport = field(default_factory=CausalReport)

    @property
    def miss_fraction(self) -> float:
        return self.misses / self.decides if self.decides else 0.0

    @property
    def crossings(self) -> int:
        """Correlated wire crossings (one-way latencies measured)."""
        return sum(edge.count for edge in self.edges.values())


def analyze_events(events: list[TraceEvent]) -> TraceAnalysis:
    """The one fold over a finished, time-ordered trace (module docs).

    Handlers unpack each event by the positions :data:`~repro.util.
    tracing.KINDS` declares, as the emitters wrote them: ids, sizes and
    slices are ints in memory and stay ints through both file formats.
    """
    analysis = TraceAnalysis(
        n_events=len(events), kinds=dict(Counter(map(_kind, events)))
    )
    if events:
        analysis.span = (events[0][0], max(map(_time, events)))
    chains = analysis.chains
    legs = analysis.legs
    completed = analysis.completed
    hold_windows = analysis.hold_windows
    edges = analysis.edges
    rails = analysis.rails
    report = analysis.report
    open_hold: dict[str, int] = {}  # node -> index of its open window
    serving: dict[str, float] = {}  # NIC source -> send time of its span
    retransmit_times: list[float] = []
    starved_streak = 0

    def leg_for(key: str, node: str) -> Leg:
        leg = legs.get(key)
        if leg is None:
            if len(legs) >= _PENDING_CAP:
                del legs[next(iter(legs))]
            leg = legs[key] = Leg(key, node)
        return leg

    def crossing(src: str, dst: str, sent_at: float, time: float) -> None:
        name = f"{src}->{dst}"
        edge = edges.get(name)
        if edge is None:
            edge = edges[name] = _Spans()
        latency = time - sent_at
        if latency < 0:  # a trace from skewed clocks can do this; never report it
            latency = 0.0
            edge.clamped += 1
        edge.latencies.append(latency)
        edge.times.append(time)

    def on_enqueue(event: TraceEvent) -> None:
        time, source, _, message, flow, dst, fragments, n_bytes = event
        node = source.partition(":")[2]
        chain = MessageChain(node, message, flow, dst, n_bytes, fragments, time)
        if len(chains) >= _PENDING_CAP:
            del chains[next(iter(chains))]
            analysis.evicted_chains += 1
        chains[node, message] = chain

    def on_hold_arm(event: TraceEvent) -> None:
        node = event[1].partition(":")[2]
        if node not in open_hold:
            windows = hold_windows.setdefault(node, [])
            open_hold[node] = len(windows)
            windows.append((event[0], None))

    def on_hold_fire(event: TraceEvent) -> None:
        node = event[1].partition(":")[2]
        index = open_hold.pop(node, None)
        if index is not None:
            windows = hold_windows[node]
            windows[index] = (windows[index][0], event[0])

    def rdv_chain(event: TraceEvent) -> MessageChain | None:
        # Every rdv.* kind ends with its message (None: no chain has it).
        return chains.get((event[1].partition(":")[2], event[-1]))

    def on_rdv_park(event: TraceEvent) -> None:
        chain = rdv_chain(event)
        if chain is not None:
            chain.rdv_windows.append((event[0], None))

    def on_rdv_close(event: TraceEvent) -> None:
        chain = rdv_chain(event)
        if chain is not None:
            windows = chain.rdv_windows
            for i in range(len(windows) - 1, -1, -1):
                if windows[i][1] is None:
                    windows[i] = (windows[i][0], event[0])
                    break

    def on_dispatch(event: TraceEvent) -> None:
        time, source, _, packet_kind, packet, dst, _, n_bytes, _, messages = event
        node = source.partition(":")[2]
        key = f"{node}#{packet}"
        leg = legs.get(key) or leg_for(key, node)  # nic.send came first
        leg.packet_id = packet
        leg.dispatch_t = time
        leg.dst = dst
        leg.packet_kind = packet_kind
        leg.bytes = n_bytes
        leg.slices += messages
        for mid, _fid, _length in messages:
            chain = chains.get((node, mid))
            if chain is not None and leg not in chain.legs:
                chain.legs.append(leg)

    def on_nic_send(event: TraceEvent) -> None:
        time, source, _, packet, _, _, _, _, occupancy, _, corr = event
        serving[source] = time
        nic = source.partition(":")[2]
        node = nic.partition(".")[0]
        if corr is ABSENT:  # a sim send: the crossing opens here
            leg = leg_for(f"{node}#{packet}", node)
            leg.last_send_t = time
        else:
            leg = leg_for(corr, node)
        if leg.send_t is None:
            leg.send_t = time
        leg.nic = nic
        leg.occupancy = float(occupancy)

    def on_nic_idle(event: TraceEvent) -> None:
        time, source = event[:2]
        sent = serving.pop(source, None)
        if sent is not None:
            name = source.partition(":")[2]
            rail = rails.get(name)
            if rail is None:
                rail = rails[name] = _Spans()
            rail.latencies.append(time - sent)
            rail.times.append(time)

    def on_nic_fail(event: TraceEvent) -> None:
        serving.pop(event[1], None)

    def rel_leg(event: TraceEvent) -> Leg:
        node = event[1].partition(":")[2].partition(".")[0]
        return leg_for(f"{node}#{event[3]}", node)

    def on_retransmit(event: TraceEvent) -> None:
        rel_leg(event).retransmits.append(event[0])
        retransmit_times.append(event[0])

    def on_drop(event: TraceEvent) -> None:
        rel_leg(event).drops += 1

    def reorder_leg(event: TraceEvent) -> Leg:
        packet, src = event[3:5]  # both reorder.* kinds start (packet, src)
        return leg_for(f"{src}#{packet}", src)

    def on_reorder_enter(event: TraceEvent) -> None:
        reorder_leg(event).reorder_enter_t = event[0]

    def on_reorder_release(event: TraceEvent) -> None:
        reorder_leg(event).reorder_release_t = event[0]

    def on_live_recv(event: TraceEvent) -> None:
        time, _, _, corr, src, dst, _, sent_at = event[:8]
        leg = leg_for(corr, src)
        if leg.recv_t is None:
            leg.recv_t = time
        if sent_at is not None:
            crossing(src, dst, float(sent_at), time)

    def on_deliver(event: TraceEvent) -> None:
        time, source, _, packet, _, _, _, src, corr = event
        if corr is None:  # a sim delivery closes its leg's latest send
            leg = legs.get(f"{src}#{packet}")
            if leg is None:
                return
            sent = leg.last_send_t
            if sent is not None:
                leg.last_send_t = None
                crossing(src, source.partition(":")[2], sent, time)
        else:
            leg = legs.get(corr)
            if leg is None:
                return
        if leg.deliver_t is None:
            leg.deliver_t = time
            node = leg.node
            for mid, _fid, length in leg.slices:
                chain = chains.get((node, mid))
                if chain is not None:
                    chain.delivered_bytes += length
                    chain.last_deliver_t = time

    def on_complete(event: TraceEvent) -> None:
        time, _, _, message, _, src = event[:6]
        chain = chains.pop((src, message), None)
        if chain is not None:
            chain.complete_t = time
            completed.append(chain)

    def on_truncated(event: TraceEvent) -> None:
        seen, dropped = event[3:5]
        report.trace_dropped += int(dropped)
        if seen is not None:
            report.trace_seen = (report.trace_seen or 0) + int(seen)

    def on_sample(event: TraceEvent) -> None:
        nonlocal starved_streak
        t, _, _, queues, busy, backlog, _, retrans, _, holds_armed, _ = event
        analysis.backlog.add(t, backlog)
        per_node: dict[str, float] = {}
        for key, pair in queues:
            node = key.split("/", 1)[0]
            per_node[node] = per_node.get(node, 0.0) + pair[0]
        for node, depth in per_node.items():
            analysis.node_depth.setdefault(node, _Series()).add(t, depth)
        for nic_name, fraction in busy:
            analysis.nic_busy.setdefault(nic_name, _Series()).add(t, fraction)
        analysis.retransmits.add(t, retrans)
        # Hold starvation: a Nagle hold armed while every NIC sat idle.
        if holds_armed and busy and max(f for _, f in busy) == 0.0:
            starved_streak += 1
            analysis.hold_starved_samples += 1
            analysis.hold_starved_streak = max(
                analysis.hold_starved_streak, starved_streak
            )
        else:
            starved_streak = 0

    def on_decide(event: TraceEvent) -> None:
        source, channel, items = event[1], event[5], event[6]  # see KINDS
        regime, _, _, truncation, widest = event[-8:-3]
        analysis.width_sum += items
        if widest is not ABSENT:
            analysis.widest_sum += widest
            if widest > items:
                analysis.misses += 1
                key = f"{source.partition(':')[2]}/{channel}"
                misses = analysis.miss_by_channel
                misses[key] = misses.get(key, 0) + 1
        if truncation is not ABSENT:
            analysis.truncation[truncation] = analysis.truncation.get(truncation, 0) + 1
        if regime is not ABSENT:
            analysis.regimes[regime] = analysis.regimes.get(regime, 0) + 1

    table = {
        "collect.enqueue": on_enqueue,
        "hold.arm": on_hold_arm,
        "hold.fire": on_hold_fire,
        "rdv.park": on_rdv_park,
        "rdv.ready": on_rdv_close,
        "rdv.timeout": on_rdv_close,
        "engine.dispatch": on_dispatch,
        "nic.send": on_nic_send,
        "nic.idle": on_nic_idle,
        "nic.fail": on_nic_fail,
        "rel.retransmit": on_retransmit,
        "rel.drop": on_drop,
        "reorder.enter": on_reorder_enter,
        "reorder.release": on_reorder_release,
        "live.recv": on_live_recv,
        "rx.deliver": on_deliver,
        "message.complete": on_complete,
        "obs.truncated": on_truncated,
        "obs.sample": on_sample,
        "optimizer.decide": on_decide,
    }
    handlers = map(table.get, map(_kind, events))  # looked up in C
    for event, handler in zip(events, handlers):
        if handler is not None:
            handler(event)

    # A chain delivered in full whose message.complete is missing (a
    # truncated trace) closes at its last delivery; the rest stay open.
    for key in [key for key, chain in chains.items() if chain.covered]:
        chain = chains.pop(key)
        chain.complete_t = chain.last_deliver_t
        completed.append(chain)
    # An evicted chain never closed either.
    report.incomplete = len(chains) + analysis.evicted_chains
    append = report.messages.append
    for chain in completed:
        blame = attribute_chain(chain, hold_windows)
        if blame is not None:
            append(blame)
    kinds = analysis.kinds
    analysis.decides = kinds.get("optimizer.decide", 0)
    analysis.samples = kinds.get("obs.sample", 0)
    analysis.retransmit_count = kinds.get("rel.retransmit", 0)
    analysis.retransmit_storms = _count_storms(retransmit_times)
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


def analyze_file(path: str | Path) -> TraceAnalysis:
    """Load a JSONL trace file and analyze it."""
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
            stats = spans.stats()
            columns = "  ".join(
                f"{label} {format_time(stats[f'{label}_us'] / 1e6)}" for label in _EDGE_TAILS
            )
            lines.append(f"  {name:<{name_width}}  n={spans.count:<6} {columns}{clamp}")

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

    table = blame_table(report)
    if table:
        lines.append("")
        lines.append(
            f"causal blame per edge ({len(report.messages)} message(s) "
            f"attributed, {report.incomplete} incomplete; "
            "see 'obs why' for waterfalls):"
        )
        lines += table

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


#: The good direction of every key :func:`summary_metrics` emits, by
#: glob (the first match wins): ``obs diff`` gates a ``"lower"`` key
#: when it rises and a ``"higher"`` one when it falls; ``None`` declares
#: a key reported and never gated.
SUMMARY_BETTER: dict[str, str | None] = {
    "trace/events": None,
    "trace/samples": "higher",
    "trace/dropped": "lower",
    "decide/records": None,
    "decide/miss_fraction": "lower",
    "retransmit/*": "lower",
    "hold/starved_*": "lower",
    "crossings/total": "higher",
    "crossings/clamped": "lower",
    "backlog/*": None,
    "edge/*/crossings": "higher",
    "edge/*/latency_*_us": "lower",
    "blame/messages": "higher",
    "blame/*/unattributed_fraction": "lower",
    "blame/*/retransmit_fraction": "lower",
    "blame/*/*_fraction": None,
}


def summary_metrics(analysis: TraceAnalysis) -> dict[str, float]:
    """Flatten an analysis into the scalar map ``obs diff`` compares.

    Keys are stable identifiers (``edge/n0->n1/latency_p50_us``), values
    plain floats, so two analyses — or an analysis and a checked-in
    baseline — diff mechanically.  Each key's direction is declared in
    :data:`SUMMARY_BETTER`.
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
        stats = edge.stats()
        for label in _EDGE_TAILS:
            out[f"{prefix}/latency_{label}_us"] = stats[f"{label}_us"]
    report = analysis.report
    out["blame/messages"] = float(len(report.messages))
    if report.trace_dropped:
        out["trace/dropped"] = float(report.trace_dropped)
    for edge_name, slot in sorted(report.edges().items()):
        for bucket, fraction in sorted(slot["fractions"].items()):
            out[f"blame/{edge_name}/{bucket}_fraction"] = fraction
    return out


def tails_payload(
    analysis: TraceAnalysis, objectives: Iterable["SLObjective"] = ()
) -> dict[str, Any]:
    """The tail view of one analysis: exact per-edge latency and per-rail
    service time (rail names never collide across peers: each NIC's name
    carries its node), the blame summary and, when there are
    ``objectives``, under ``"slo"`` each one's verdict on each edge its
    glob matches.

    A verdict holds exact multi-window burn rates over the edge's
    timestamped crossings: a window (seconds before the trace's end)
    burns its violating fraction over the error budget (``1 - target``),
    so a burn ``>= 1`` spends the budget at least as fast as it accrues.
    A violation requires **every** window to burn, the standard
    multi-window rule: short windows alone alert on blips, long windows
    alone alert too late, both together mean the regression is current
    *and* sustained.
    """
    payload: dict[str, Any] = {
        "edges": {name: edge.stats() for name, edge in sorted(analysis.edges.items())},
        "rails": {nic: rail.stats() for nic, rail in sorted(analysis.rails.items())},
        "blame": analysis.report.summary(),
    }
    if not objectives:
        return payload
    verdicts = payload["slo"] = []
    for objective in objectives:
        threshold_s = objective.threshold_us / 1e6
        for name, edge in sorted(analysis.edges.items()):
            if not fnmatchcase(name, objective.edge):
                continue
            burn: dict[str, float] = {}
            for window in objective.windows:
                start = analysis.span[1] - window
                in_window = [lat for t, lat in zip(edge.times, edge.latencies) if t >= start]
                violating = sum(1 for lat in in_window if lat > threshold_s)
                burn[f"{window:g}s"] = (
                    violating / len(in_window) / objective.budget if in_window else 0.0
                )
            verdicts.append({
                "objective": objective.name,
                "edge": name,
                "threshold_us": objective.threshold_us,
                "target": objective.target,
                "burn": burn,
                "samples": edge.count,
                "violated": bool(burn) and all(b >= 1.0 for b in burn.values()),
            })
    return payload


def render_slo(verdicts: list[dict[str, Any]]) -> str:
    """One line per (objective, edge) burn-rate verdict."""
    if not verdicts:
        return "SLO: no objectives matched any edge"
    lines = ["SLO burn rates (burn >= 1 in every window = violation):"]
    for v in verdicts:
        windows = "  ".join(f"{label}={burn:.2f}" for label, burn in v["burn"].items())
        verdict = "VIOLATED" if v["violated"] else "ok"
        lines.append(
            f"  [{verdict:^8}] {v['objective']}: {v['edge']} "
            f"<= {v['threshold_us']:g}us @ {v['target']:g} "
            f"(n={v['samples']})  burn {windows}"
        )
    return "\n".join(lines)


def main(args) -> int:
    """Entry point for ``python -m repro obs analyze``.

    ``--scenario`` adds the exact multi-window burn rates of that
    scenario's ``observability.slo`` objectives; ``--check`` exits 1
    when no wire crossing was correlated or an objective is violated.
    """
    path = Path(args.trace)
    verdicts: list[dict[str, Any]] = []
    analysis = analyze_file(path)  # a missing or unreadable trace prints nothing
    try:
        print(f"== observability analysis: {path} ==")
        print(render(analysis, width=args.width, top=args.top))
        if args.scenario:
            from repro.obs.plane import ObservabilityConfig

            spec = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
            config = ObservabilityConfig.from_spec(spec.get("observability", {}))
            verdicts = tails_payload(analysis, config.slo).get("slo", [])
            print()
            print(render_slo(verdicts))
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
        violated = [v for v in verdicts if v["violated"]]
        if violated:
            print(f"FAIL: {len(violated)} SLO violation(s)")
            return 1
    return 0
