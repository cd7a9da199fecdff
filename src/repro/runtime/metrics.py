"""Message-level metrics and session reports.

A :class:`MetricsCollector` hooks every node's reassembler and records
one :class:`MessageRecord` per completed message.  At the end of a run,
:meth:`MetricsCollector.report` combines those records with engine and
NIC counters into a :class:`SessionReport` — the object every benchmark
prints its table rows from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.madeleine.message import Message
from repro.madeleine.rx import MessageReassembler
from repro.network.virtual import TrafficClass
from repro.util.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = [
    "MessageRecord",
    "LatencySummary",
    "SessionReport",
    "MetricsCollector",
    "assemble_report",
    "stats_row",
]


def _nan_to_none(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


class MessageRecord(NamedTuple):
    """One completed message (an immutable named tuple: one is built per
    message, on the delivery path)."""

    message_id: int
    flow_name: str
    traffic_class: TrafficClass
    src: str
    dst: str
    size: int
    fragments: int
    submit_time: float
    complete_time: float

    @property
    def latency(self) -> float:
        """Submit-to-full-delivery time (virtual seconds)."""
        return self.complete_time - self.submit_time

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (how a live peer ships its records)."""
        out = self._asdict()
        out["traffic_class"] = self.traffic_class.value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MessageRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            **{**payload, "traffic_class": TrafficClass(payload["traffic_class"])}
        )


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Latency statistics over a record subset."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    minimum: float
    maximum: float

    def to_dict(self) -> dict:
        """JSON-ready view (NaNs become None for strict parsers)."""
        return {
            "count": self.count,
            "mean": _nan_to_none(self.mean),
            "p50": _nan_to_none(self.p50),
            "p90": _nan_to_none(self.p90),
            "p99": _nan_to_none(self.p99),
            "p999": _nan_to_none(self.p999),
            "min": _nan_to_none(self.minimum),
            "max": _nan_to_none(self.maximum),
        }

    @classmethod
    def of(cls, latencies: Iterable[float]) -> "LatencySummary":
        arr = np.asarray(list(latencies), dtype=float)
        if arr.size == 0:
            nan = math.nan
            return cls(0, nan, nan, nan, nan, nan, nan, nan)
        return cls(
            int(arr.size),
            float(arr.mean()),
            *percentiles(arr, (50.0, 90.0, 99.0, 99.9)),
            float(arr.min()),
            float(arr.max()),
        )


@dataclass(frozen=True, slots=True)
class SessionReport:
    """Aggregated results of one experiment run."""

    duration: float
    messages: int
    total_bytes: int
    latency: LatencySummary
    latency_by_class: dict[TrafficClass, LatencySummary]
    throughput: float  #: delivered payload bytes / duration
    message_rate: float  #: completed messages / duration
    network_transactions: int  #: total NIC requests, all kinds
    data_packets: int
    control_packets: int
    aggregation_ratio: float  #: mean segments per data packet
    nic_utilization: float  #: mean busy fraction over all NICs
    host_time: float  #: total host CPU time consumed by sends (s)
    rdv_count: int
    #: Fault/reliability counters; all zero on a lossless run.
    retransmits: int = 0
    packets_dropped: int = 0
    packets_corrupted: int = 0
    packets_duplicated: int = 0
    failovers: int = 0  #: engine rail-down re-routes + transport NIC switches
    rdv_timeouts: int = 0
    #: Degraded completion (live runs): at least one peer died mid-run
    #: and the report merges only the survivors' views.
    degraded: bool = False
    #: Submitted messages abandoned because their destination peer died.
    lost_messages: int = 0

    def to_dict(self) -> dict:
        """Full JSON-ready view of the report (``repro run --json``):
        every field, in declaration order, NaNs as None."""
        out = {name: _nan_to_none(getattr(self, name)) for name in self.__slots__}
        out["latency"] = self.latency.to_dict()
        out["latency_by_class"] = {
            tc.value: summary.to_dict() for tc, summary in self.latency_by_class.items()
        }
        return out

    def row(self) -> dict[str, float]:
        """Flat numeric view for table printing."""
        return {
            "messages": self.messages,
            "bytes": self.total_bytes,
            "mean_lat_us": self.latency.mean * 1e6,
            "p99_lat_us": self.latency.p99 * 1e6,
            "p999_lat_us": self.latency.p999 * 1e6,
            "tput_MBps": self.throughput / 1e6,
            "msg_per_s": self.message_rate,
            "transactions": self.network_transactions,
            "agg_ratio": self.aggregation_ratio,
            "nic_util": self.nic_utilization,
            "retransmits": self.retransmits,
            "failovers": self.failovers,
            "dropped": self.packets_dropped,
        }


def stats_row(stats: Any) -> dict[str, Any]:
    """One ``NicStats`` / ``EngineStats`` as a row for :func:`assemble_report`
    (shallow: ``dataclasses.asdict`` would deep-copy the per-kind dicts)."""
    return {name: getattr(stats, name) for name in stats.__slots__}


def assemble_report(
    records: Sequence[MessageRecord],
    nics: Sequence[Mapping[str, Any]],
    engines: Sequence[Mapping[str, Any]],
    *,
    duration: float,
    elapsed: float,
    transport_failovers: int = 0,
    **extra: Any,
) -> SessionReport:
    """The one place a :class:`SessionReport` is put together.

    ``nics`` and ``engines`` hold one row of cumulative counters per NIC
    and per engine (:func:`stats_row` of ``NicStats`` / ``EngineStats``
    — the form a live peer ships them in).  The planes differ in where the
    rows come from and in what ``duration`` (the span rates are taken
    over) and ``elapsed`` (the span a NIC could have been busy for)
    mean on their clock; ``extra`` sets further report fields by name.
    """

    def total(rows: Sequence[Mapping[str, Any]], key: str):
        return sum(row[key] for row in rows)

    by_class: dict[TrafficClass, LatencySummary] = {}
    for traffic_class in TrafficClass:
        samples = [r.latency for r in records if r.traffic_class is traffic_class]
        if samples:
            by_class[traffic_class] = LatencySummary.of(samples)
    total_bytes = sum(r.size for r in records)
    data_packets = total(engines, "data_packets")
    return SessionReport(
        duration=duration,
        messages=len(records),
        total_bytes=total_bytes,
        latency=LatencySummary.of([r.latency for r in records]),
        latency_by_class=by_class,
        throughput=total_bytes / duration if duration > 0 else 0.0,
        message_rate=len(records) / duration if duration > 0 else 0.0,
        network_transactions=total(nics, "requests"),
        data_packets=data_packets,
        control_packets=total(engines, "dispatches") - data_packets,
        aggregation_ratio=(
            total(engines, "data_segments") / data_packets if data_packets else 0.0
        ),
        nic_utilization=(
            total(nics, "busy_time") / (len(nics) * elapsed) if nics else 0.0
        ),
        host_time=total(nics, "host_time"),
        rdv_count=total(engines, "rdv_parked"),
        rdv_timeouts=total(engines, "rdv_timeouts"),
        failovers=total(engines, "failovers") + transport_failovers,
        **extra,
    )


class MetricsCollector:
    """Collects completed-message records across a cluster."""

    def __init__(self) -> None:
        self.records: list[MessageRecord] = []

    def attach(self, reassembler: MessageReassembler) -> None:
        """Hook one node's reassembler (call once per node)."""
        reassembler.on_message_complete = self._on_complete

    def _on_complete(self, message: Message, now: float) -> None:
        assert message.submit_time is not None
        self.records.append(
            MessageRecord(
                message_id=message.message_id,
                flow_name=message.flow.name,
                traffic_class=message.flow.traffic_class,
                src=message.flow.src,
                dst=message.flow.dst,
                size=message.total_size,
                fragments=len(message.fragments),
                submit_time=message.submit_time,
                complete_time=now,
            )
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def latencies(
        self,
        traffic_class: TrafficClass | None = None,
        flow_name: str | None = None,
        since: float = 0.0,
    ) -> list[float]:
        """Latency samples, optionally filtered."""
        return [
            r.latency
            for r in self.records
            if (traffic_class is None or r.traffic_class is traffic_class)
            and (flow_name is None or r.flow_name == flow_name)
            and r.submit_time >= since
        ]

    def report(self, cluster: "Cluster", since: float = 0.0) -> SessionReport:
        """Build the session report for records submitted after ``since``."""
        records = [r for r in self.records if r.submit_time >= since]
        now = cluster.sim.now
        last_complete = max((r.complete_time for r in records), default=now)
        transport = getattr(cluster, "transport", None)
        nics = [stats_row(nic.stats) for node in cluster.nodes for nic in node.nics]
        return assemble_report(
            records,
            nics,
            [stats_row(engine.stats) for engine in cluster.engines.values()],
            duration=max(last_complete - since, 0.0),
            elapsed=now if now > 0 else 1.0,
            transport_failovers=transport.stats.failovers if transport is not None else 0,
            retransmits=transport.stats.retransmits if transport is not None else 0,
            # What happened to packets, as the sending NICs counted it: a
            # drop includes an attempt sent into a dark rail, and a packet
            # the lottery drops is neither corrupted nor duplicated.
            packets_dropped=sum(row["drops"] for row in nics),
            packets_corrupted=sum(row["corruptions"] for row in nics),
            packets_duplicated=sum(row["duplicates"] for row in nics),
        )
