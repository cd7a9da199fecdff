"""Trace-driven workload replay.

Real communication-middleware traces (the paper's authors would have
captured these from PadicoTM applications) are not available, so this
module provides the substitute: a trace *format* — one record per
message: ``(time, src, dst, size, traffic_class, n_fragments)`` — a
:class:`TraceReplayApp` that replays any trace faithfully against
either engine, and a synthetic-trace generator producing realistic
mixes (heavy-tailed sizes, bursty arrivals, several concurrent
middleware personalities).

Because replay is deterministic, the same trace can be run across
engines/strategies/policies for controlled comparisons — the role real
traces play in systems evaluations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.middleware.base import AppBase
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["TraceRecord", "TraceReplayApp", "synthesize_trace", "load_trace", "save_trace"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One message in a communication trace."""

    time: float
    src: str
    dst: str
    size: int
    traffic_class: TrafficClass = TrafficClass.DEFAULT
    fragments: int = 1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"negative trace time {self.time}")
        if self.size < 1:
            raise ConfigurationError(f"trace size must be >= 1, got {self.size}")
        if self.fragments < 1 or self.fragments > self.size:
            raise ConfigurationError(
                f"fragments must be in [1, size], got {self.fragments}"
            )
        if self.src == self.dst:
            raise ConfigurationError(f"trace record loops on {self.src!r}")


class TraceReplayApp(AppBase):
    """Replays a trace: each record becomes one message at its timestamp.

    Records are grouped into one flow per (src, dst, traffic_class); the
    record's payload is split into ``fragments`` roughly equal pieces,
    the first marked express (header-like).
    """

    def __init__(self, trace: Sequence[TraceRecord], name: str | None = None) -> None:
        if not trace:
            raise ConfigurationError("empty trace")
        super().__init__(name)
        self.trace = sorted(trace, key=lambda r: r.time)
        #: Messages sent during replay (same order as the sorted trace).
        self.messages: list = []

    def _start(self, cluster: "Cluster") -> None:
        # Every flow the trace needs, opened in trace order before any
        # replayer runs (flow ids are the run's opening order).
        flows: dict[tuple[str, str, TrafficClass], object] = {}
        by_src: dict[str, list[TraceRecord]] = {}
        for record in self.trace:
            by_src.setdefault(record.src, []).append(record)
            key = (record.src, record.dst, record.traffic_class)
            if key not in flows:
                flows[key] = cluster.api(record.src).open_flow(
                    record.dst,
                    f"{self.name}.{record.src}->{record.dst}.{record.traffic_class.value}",
                    record.traffic_class,
                )

        def replayer(records: list[TraceRecord]):
            api = cluster.api(records[0].src)
            for record in records:
                gap = record.time - cluster.sim.now
                if gap > 0:
                    yield gap
                session = api.begin(
                    flows[record.src, record.dst, record.traffic_class]
                )
                base = record.size // record.fragments
                remainder = record.size - base * record.fragments
                for i in range(record.fragments):
                    piece = base + (remainder if i == 0 else 0)
                    session.pack(piece, express=(i == 0 and record.fragments > 1))
                self.messages.append(session.flush())

        for src, records in by_src.items():
            self.spawn(src, replayer(records), f"replay-{src}")


def synthesize_trace(
    rng: RngStream,
    *,
    nodes: Sequence[str],
    duration: float,
    message_rate: float,
    burstiness: float = 2.0,
    small_median: int = 256,
    bulk_median: int = 32 * 1024,
    bulk_fraction: float = 0.1,
    control_fraction: float = 0.15,
) -> list[TraceRecord]:
    """Generate a realistic synthetic trace.

    Arrivals follow a two-state burst process (mean rate
    ``message_rate``, bursts ``burstiness`` times denser); sizes are
    lognormal with separate small/bulk populations; sources,
    destinations and classes are drawn per message.
    """
    if len(nodes) < 2:
        raise ConfigurationError("need >= 2 nodes for a trace")
    if duration <= 0 or message_rate <= 0:
        raise ConfigurationError("duration and message_rate must be > 0")
    if burstiness < 1.0:
        raise ConfigurationError(f"burstiness must be >= 1, got {burstiness}")
    records = []
    time = 0.0
    in_burst = False
    while time < duration:
        rate = message_rate * (burstiness if in_burst else 1.0)
        time += rng.exponential(1.0 / rate)
        if time >= duration:
            break
        if rng.uniform() < 0.1:  # state flip ~every 10 messages
            in_burst = not in_burst
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src])
        roll = rng.uniform()
        if roll < control_fraction:
            traffic_class = TrafficClass.CONTROL
            size = rng.integers(16, 64)
            fragments = 1
        elif roll < control_fraction + bulk_fraction:
            traffic_class = TrafficClass.BULK
            size = rng.lognormal_size(bulk_median, 1.0, lo=4096, hi=1024 * 1024)
            fragments = 2
        else:
            traffic_class = TrafficClass.DEFAULT
            size = rng.lognormal_size(small_median, 1.2, lo=16, hi=16 * 1024)
            fragments = 2 if size > 256 else 1
        records.append(
            TraceRecord(time, src, dst, size, traffic_class, fragments)
        )
    if not records:
        raise ConfigurationError("trace synthesis produced no records")
    return records


def save_trace(trace: Iterable[TraceRecord], path: str | Path) -> None:
    """Write a trace as JSON Lines."""
    lines = []
    for record in trace:
        data = asdict(record)
        data["traffic_class"] = record.traffic_class.value
        lines.append(json.dumps(data))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trace(path: str | Path) -> list[TraceRecord]:
    """Read a JSON Lines trace written by :func:`save_trace`."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        data["traffic_class"] = TrafficClass(data["traffic_class"])
        records.append(TraceRecord(**data))
    if not records:
        raise ConfigurationError(f"no trace records in {path}")
    return records
