"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSON Lines.

The Chrome exporter maps the simulator's event stream onto the trace
event format ``chrome://tracing`` and https://ui.perfetto.dev consume.
Every event becomes an **instant** event (``i``) on its source's track,
carrying its fields by name (``detail_of``) in ``args``; the spans, flows
and counters below are projections of those instants, drawn beside them
(their fields stay on the instants):

* every **node** becomes a process (``pid``), with its NICs and its
  optimizer as named threads (tracks);
* ``nic.send`` → ``nic.idle`` pairs become duration spans (``B``/``E``)
  on the NIC track, so the Gantt view *is* the paper's "keep the NICs
  adequately busy" picture;
* rendezvous handshakes become **async spans** (``b``/``e``), keyed by
  their protocol token: park → ready (or park → timeout, labelled so);
* ``obs.sample`` records become **counter tracks** (``C``): queue
  depth/bytes per node, per-NIC busy fraction, retransmits in flight;
* ``live.recv`` records (a live peer decoding a wire frame) become
  **flow events** (``s``/``f``): an arrow from the sending NIC's
  ``nic.send`` span to the receiving peer's decode instant, keyed by the
  correlation id the sender stamped into the wire meta — in a merged
  multi-peer trace this draws every wire crossing across process lanes.

Timestamps are virtual microseconds (the trace format's native unit).

The Chrome trace is a write-only export for viewing.  JSON Lines is the
one format read back: ``load_events`` turns it into
:class:`~repro.util.tracing.TraceEvent` lists, which is what the
``python -m repro obs`` commands operate on.  A live run's trace arrives
as one stream per peer; ``merge_events`` makes them one list.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent, detail_of, event_from_dict, events_to_jsonl

__all__ = ["to_chrome_trace", "write_trace", "load_events", "merge_events"]

#: ``pid`` reserved for cluster-global tracks (sampler, transport).
_GLOBAL_PID = 1

#: Thread sort order inside a node's process group.
_TID_OPTIMIZER = 0


def _node_of_source(source: str) -> str | None:
    """The node a source belongs to, or None for global sources.

    Sources follow ``layer:name`` with node-scoped names either being
    the node itself (``engine:n0``) or dotted with it (``nic:n0.mx00``).
    """
    _, _, name = source.partition(":")
    if not name:
        return None
    head = name.split(".", 1)[0]
    return head if head.startswith("n") and head[1:].isdigit() else None


class _TrackAllocator:
    """Stable pid/tid assignment plus the metadata events naming them."""

    def __init__(self) -> None:
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        self.metadata: list[dict[str, Any]] = [
            {
                "ph": "M",
                "pid": _GLOBAL_PID,
                "name": "process_name",
                "args": {"name": "cluster"},
            }
        ]

    def pid(self, node: str | None) -> int:
        if node is None:
            return _GLOBAL_PID
        pid = self._pids.get(node)
        if pid is None:
            pid = len(self._pids) + _GLOBAL_PID + 1
            self._pids[node] = pid
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "name": "process_name",
                    "args": {"name": f"node {node}"},
                }
            )
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "name": "process_sort_index",
                    "args": {"sort_index": pid},
                }
            )
        return pid

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for (p, _) in self._tids if p == pid) + _TID_OPTIMIZER
            self._tids[key] = tid
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid

    def track_for(self, source: str) -> tuple[int, int]:
        """(pid, tid) of a source's own track."""
        layer, _, name = source.partition(":")
        node = _node_of_source(source)
        pid = self.pid(node)
        if layer == "engine":
            track = "optimizer"
        elif node is not None and name != node:
            track = f"{layer} {name}"
        else:
            track = source
        return pid, self.tid(pid, track)


def _us(time: float) -> float:
    return time * 1e6


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Build the Chrome trace-event JSON object (see module docs)."""
    tracks = _TrackAllocator()
    out: list[dict[str, Any]] = []
    open_sends: dict[str, TraceEvent] = {}
    open_rdv: dict[Any, str] = {}  # token -> source (for orphan close)
    last_ts = 0.0

    for event in events:
        time, source, kind = event[:3]
        ts = _us(time)
        last_ts = max(last_ts, ts)
        detail = detail_of(event)
        pid, tid = tracks.track_for(source)
        out.append(_instant(source, kind, detail, ts, pid, tid))

        if kind == "nic.send":
            open_sends[source] = event
            out.append(
                {
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "name": f"send {detail.get('packet_kind', '?')}",
                    "cat": "nic",
                }
            )
        elif kind == "nic.idle":
            if open_sends.pop(source, None) is not None:
                out.append({"ph": "E", "ts": ts, "pid": pid, "tid": tid})
        elif kind == "rdv.park":
            token = detail.get("token")
            open_rdv[token] = source
            out.append(
                {
                    "ph": "b",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "cat": "rdv",
                    "id": token,
                    "name": "rendezvous",
                }
            )
        elif kind in ("rdv.ready", "rdv.timeout"):
            token = detail.get("token")
            if open_rdv.pop(token, None) is not None:
                out.append(
                    {
                        "ph": "e",
                        "ts": ts,
                        "pid": pid,
                        "tid": tid,
                        "cat": "rdv",
                        "id": token,
                        "name": "rendezvous",
                        "args": {"outcome": kind.split(".", 1)[1]},
                    }
                )
        elif kind == "obs.sample":
            out.extend(_sample_counters(detail, ts, tracks))
        elif kind == "live.recv":
            out.extend(_flow_pair(detail, ts, pid, tid, tracks))

    # Close anything still open so the JSON is a well-formed trace.
    for source, event in open_sends.items():
        pid, tid = tracks.track_for(source)
        out.append({"ph": "E", "ts": last_ts, "pid": pid, "tid": tid})
    for token, source in open_rdv.items():
        pid, tid = tracks.track_for(source)
        out.append(
            {
                "ph": "e",
                "ts": last_ts,
                "pid": pid,
                "tid": tid,
                "cat": "rdv",
                "id": token,
                "name": "rendezvous",
                "args": {"outcome": "unresolved"},
            }
        )

    return {
        "traceEvents": tracks.metadata + out,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "time_unit": "virtual microseconds"},
    }


def _instant(source: str, kind: str, detail: dict, ts: float, pid: int, tid: int) -> dict:
    return {
        "ph": "i",
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "s": "t",
        "name": kind,
        "cat": kind.split(".", 1)[0],
        # engine:* sources share one "optimizer" track: keep which one.
        "args": {**detail, "source": source},
    }


def _flow_pair(
    detail: dict[str, Any], ts: float, pid: int, tid: int, tracks: _TrackAllocator
) -> list[dict[str, Any]]:
    """Flow start/finish (`ph: s`/`f`) for one ``live.recv`` record.

    The start sits on the sending NIC's track at the sender's own
    ``sent_at`` timestamp — visually anchored to the ``nic.send``
    span that produced the frame; the finish sits on the receiver's
    track at decode time.  Without a correlation id there is nothing to
    key the arrow on, so the record stays a plain instant.
    """
    corr = detail.get("corr")
    if corr is None:
        return []
    sent_at = detail.get("sent_at")
    via = detail.get("via")
    if via is not None:
        src_pid, src_tid = tracks.track_for(f"nic:{via}")
    else:  # sender NIC unknown: anchor the start on the sender process
        src_pid, src_tid = tracks.track_for(f"live:{detail.get('src', '?')}")
    start_ts = _us(float(sent_at)) if sent_at is not None else ts
    flow = {"cat": "wire", "id": str(corr), "name": "wire"}
    return [
        {"ph": "s", "ts": min(start_ts, ts), "pid": src_pid, "tid": src_tid, **flow},
        {"ph": "f", "ts": ts, "pid": pid, "tid": tid, "bp": "e", **flow},
    ]


def _sample_counters(
    detail: dict[str, Any], ts: float, tracks: _TrackAllocator
) -> list[dict[str, Any]]:
    """Counter events (`ph: C`) for one ``obs.sample`` record."""
    out: list[dict[str, Any]] = []

    def counter(pid: int, name: str, series: dict[str, Any]) -> None:
        out.append(
            {"ph": "C", "ts": ts, "pid": pid, "name": name, "args": series}
        )

    per_node_depth: dict[str, float] = {}
    per_node_bytes: dict[str, float] = {}
    for key, pair in detail.get("queues", {}).items():
        node = str(key).split("/", 1)[0]
        depth, n_bytes = pair[0], pair[1]
        per_node_depth[node] = per_node_depth.get(node, 0) + depth
        per_node_bytes[node] = per_node_bytes.get(node, 0) + n_bytes
    for node in per_node_depth:
        pid = tracks.pid(node)
        counter(pid, "queue depth", {"entries": per_node_depth[node]})
        counter(pid, "queue bytes", {"bytes": per_node_bytes[node]})
    for nic_name, fraction in detail.get("nic_busy", {}).items():
        pid = tracks.pid(_node_of_source(f"nic:{nic_name}"))
        counter(pid, f"busy {nic_name}", {"fraction": fraction})
    global_series = {
        "backlog": detail.get("backlog"),
        "retransmits in flight": detail.get("retransmits_in_flight"),
        "rendezvous in flight": detail.get("rendezvous_in_flight"),
        "holds armed": detail.get("holds_armed"),
    }
    for name, value in global_series.items():
        if value is not None:
            counter(_GLOBAL_PID, name, {name: value})
    return out


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def write_trace(path: str | Path, events: Sequence[TraceEvent]) -> str:
    """Write ``events`` in the format the extension names.

    ``.jsonl``/``.ndjson`` → JSON Lines, the format :func:`load_events`
    reads back; anything else → Chrome trace JSON, the Perfetto view.
    Returns the format written (``"jsonl"`` or ``"chrome"``).
    """
    if Path(path).suffix.lower() in (".jsonl", ".ndjson"):
        text = events_to_jsonl(events)
        Path(path).write_text(text + ("\n" if text else ""), encoding="utf-8")
        return "jsonl"
    Path(path).write_text(json.dumps(to_chrome_trace(events)) + "\n", encoding="utf-8")
    return "chrome"


def load_events(path: str | Path) -> list[TraceEvent]:
    """Load a JSON Lines trace file (one event object per line) back
    into events.  A Chrome trace is a write-only Perfetto export: loading
    one is a :class:`ConfigurationError` that says to write ``.jsonl``."""
    events = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(event_from_dict(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError) as bad:
            if '"traceEvents"' in line:
                raise ConfigurationError(
                    f"{path} is a Chrome trace, a write-only Perfetto export: "
                    "write the trace as .jsonl to read it back"
                ) from None
            raise ConfigurationError(f"{path}:{n}: bad trace record: {bad}") from None
    return events


def merge_events(events_by_peer: Mapping[str, Iterable[TraceEvent]]) -> list[TraceEvent]:
    """Every peer's events, as recorded, in one time-sorted list.

    Every live peer is a child process of the coordinator on the same
    host and stamps ``time.time() - epoch`` with the coordinator's
    epoch, so the streams already share one clock: the merge shifts
    nothing, and each ``live.recv`` keeps the sender's own ``sent_at``.
    The sort is stable over the peers taken in node order, so each
    peer's own order survives and same-time events from different peers
    keep a fixed order.
    """
    merged = [event for _, events in sorted(events_by_peer.items()) for event in events]
    merged.sort(key=itemgetter(0))
    return merged
