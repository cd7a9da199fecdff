"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSON Lines.

The Chrome exporter maps the simulator's event stream onto the trace
event format ``chrome://tracing`` and https://ui.perfetto.dev consume:

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
  multi-peer trace this draws every wire crossing across process lanes;
* everything else (dispatch decisions, activations, failovers) becomes
  instant events carrying their full detail dict in ``args``.

Timestamps are virtual microseconds (the trace format's native unit).

``load_events`` reads both export formats back into normalized
:class:`~repro.util.tracing.TraceEvent` lists, which is what the
``python -m repro obs analyze`` CLI operates on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent, event_to_dict, events_to_jsonl

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
    "load_events",
]

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
        ts = _us(event.time)
        last_ts = max(last_ts, ts)
        kind = event.kind
        detail = event.detail
        pid, tid = tracks.track_for(event.source)

        if kind == "nic.send":
            open_sends[event.source] = event
            out.append(
                {
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "name": f"send {detail.get('packet_kind', '?')}",
                    "cat": "nic",
                    "args": _jsonable_args(detail),
                }
            )
        elif kind == "nic.idle":
            if open_sends.pop(event.source, None) is not None:
                out.append({"ph": "E", "ts": ts, "pid": pid, "tid": tid})
        elif kind == "rdv.park":
            token = detail.get("token")
            open_rdv[token] = event.source
            out.append(
                {
                    "ph": "b",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "cat": "rdv",
                    "id": token,
                    "name": "rendezvous",
                    "args": _jsonable_args(detail),
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
            out.extend(_sample_counters(event, tracks))
            # Also kept as an instant so trace files round-trip through
            # load_events without losing the sampler's full detail.
            out.append(_instant(event, ts, pid, tid))
            continue
        elif kind == "live.recv":
            out.extend(_flow_pair(event, ts, pid, tid, tracks))
            # The instant keeps the record loadable by load_events (the
            # flow pair is a projection, like counters are for samples).
            out.append(_instant(event, ts, pid, tid))
        else:
            out.append(_instant(event, ts, pid, tid))

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


def _instant(event: TraceEvent, ts: float, pid: int, tid: int) -> dict[str, Any]:
    args = _jsonable_args(event.detail)
    args["source"] = event.source  # keeps load_events lossless
    return {
        "ph": "i",
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "s": "t",
        "name": event.kind,
        "cat": event.kind.split(".", 1)[0],
        "args": args,
    }


def _flow_pair(
    event: TraceEvent, ts: float, pid: int, tid: int, tracks: _TrackAllocator
) -> list[dict[str, Any]]:
    """Flow start/finish (`ph: s`/`f`) for one ``live.recv`` record.

    The start sits on the sending NIC's track at the (aligned, when the
    merge ran) send timestamp — visually anchored to the ``nic.send``
    span that produced the frame; the finish sits on the receiver's
    track at decode time.  Without a correlation id there is nothing to
    key the arrow on, so the record stays a plain instant.
    """
    detail = event.detail
    corr = detail.get("corr")
    if corr is None:
        return []
    send_time = detail.get("send_time", detail.get("sent_at"))
    via = detail.get("via")
    if via is not None:
        src_pid, src_tid = tracks.track_for(f"nic:{via}")
    else:  # sender NIC unknown: anchor the start on the sender process
        src_pid, src_tid = tracks.track_for(f"live:{detail.get('src', '?')}")
    start_ts = _us(float(send_time)) if send_time is not None else ts
    flow = {"cat": "wire", "id": str(corr), "name": "wire"}
    return [
        {"ph": "s", "ts": min(start_ts, ts), "pid": src_pid, "tid": src_tid, **flow},
        {"ph": "f", "ts": ts, "pid": pid, "tid": tid, "bp": "e", **flow},
    ]


def _sample_counters(event: TraceEvent, tracks: _TrackAllocator) -> list[dict[str, Any]]:
    """Counter events (`ph: C`) for one ``obs.sample`` record."""
    ts = _us(event.time)
    detail = event.detail
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


def _jsonable_args(detail: dict[str, Any]) -> dict[str, Any]:
    # event_to_dict handles nested coercion; reuse it through a shim.
    return event_to_dict(TraceEvent(0.0, "", "", detail))["detail"]


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def write_chrome_trace(path: str | Path, events: Iterable[TraceEvent]) -> None:
    """Write a ``.json`` Chrome/Perfetto trace file."""
    Path(path).write_text(
        json.dumps(to_chrome_trace(events)) + "\n", encoding="utf-8"
    )


def write_jsonl(path: str | Path, events: Sequence[TraceEvent]) -> None:
    """Write a ``.jsonl`` file (one event object per line)."""
    text = events_to_jsonl(events)
    Path(path).write_text(text + ("\n" if text else ""), encoding="utf-8")


def write_trace(path: str | Path, events: Sequence[TraceEvent]) -> str:
    """Write ``events`` in the format the extension names.

    ``.jsonl``/``.ndjson`` → JSON Lines; anything else → Chrome trace
    JSON.  Returns the format written (``"jsonl"`` or ``"chrome"``).
    """
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        write_jsonl(path, events)
        return "jsonl"
    write_chrome_trace(path, events)
    return "chrome"


def load_events(path: str | Path) -> list[TraceEvent]:
    """Load a trace file (either export format) back into events.

    Chrome traces reconstruct from their instant events — duration and
    counter tracks are projections of the same records, so nothing the
    analyzer needs is lost.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        return []
    # Both formats start with "{": a Chrome trace is ONE JSON object
    # holding "traceEvents", JSONL is one object PER LINE.  Parse the
    # whole document first; only a Chrome trace survives that.
    payload = None
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None  # multiple lines of objects: JSONL
    if isinstance(payload, dict) and "traceEvents" not in payload:
        if {"time", "source", "kind"} <= payload.keys():
            payload = None  # a single-event JSONL file
        else:
            raise ConfigurationError(
                f"{path}: JSON object without 'traceEvents' is not a trace"
            )
    if isinstance(payload, dict):
        trace_events = payload["traceEvents"]
        events = []
        for entry in trace_events:
            if entry.get("ph") != "i":
                continue
            args = dict(entry.get("args", {}))
            source = args.pop("source", f"pid:{entry.get('pid')}")
            events.append(
                TraceEvent(entry["ts"] / 1e6, source, entry["name"], args)
            )
        return events
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            events.append(
                TraceEvent(
                    record["time"],
                    record["source"],
                    record["kind"],
                    record.get("detail", {}),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError) as bad:
            raise ConfigurationError(f"{path}:{lineno}: bad trace line: {bad}") from None
    return events
