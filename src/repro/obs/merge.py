"""Cross-peer merge: trace streams and metric registries.

A live run (:mod:`repro.live`) produces one observability stream *per OS
process*.  This module turns those fragments into one picture:

* **Trace merging** — :func:`merge_events` is a stable time sort of the
  per-peer streams, taken in node order.  Every peer is a child process
  of the coordinator on the same host and stamps ``time.time() - epoch``
  with the coordinator's epoch, so all streams already share one clock:
  the merge shifts nothing, and each ``live.recv`` keeps the sender's
  own ``sent_at``.  Per-edge one-way latency and per-rail service time
  are then read exactly from the merged trace
  (:func:`repro.obs.analyze.analyze_events`), which clamps and counts a
  crossing that would end before it started.
* **Registry merging** — :func:`merge_registries` builds the
  cluster-level :class:`~repro.obs.metrics.MetricsRegistry`: every
  per-peer instrument reappears with a ``peer`` label.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry, snapshot_entry
from repro.util.errors import ConfigurationError
from repro.util.tracing import TraceEvent

__all__ = ["merge_events", "merge_registries"]


def merge_events(
    events_by_peer: Mapping[str, Iterable[TraceEvent]],
) -> list[TraceEvent]:
    """Every peer's events, as recorded, in one time-sorted list.

    The sort is stable over the peers taken in node order, so each
    peer's own order survives and same-time events from different peers
    keep a fixed order.
    """
    merged = [event for _, events in sorted(events_by_peer.items()) for event in events]
    merged.sort(key=itemgetter(0))
    return merged


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
    a pure relabeling, not a numeric merge.
    """
    cluster = MetricsRegistry()
    for peer, source in sorted(per_peer.items()):
        registry = (
            source
            if isinstance(source, MetricsRegistry)
            else MetricsRegistry.from_snapshot(source)
        )
        for metric in registry:
            labels = dict(metric.labels)
            if label in labels:
                raise ConfigurationError(
                    f"peer {peer!r} metric {metric.name!r} already carries the "
                    f"reserved merge label {label!r}={labels[label]!r}"
                )
            labels[label] = peer
            help_text = registry._help.get(metric.name, "")
            # Adopt through the snapshot path: kind/name validation applies.
            cluster._insert_snapshot_entry(
                snapshot_entry(metric, help_text, labels.items())
            )
    return cluster
