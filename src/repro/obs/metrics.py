"""Time-series metrics primitives: counters and gauges.

A :class:`MetricsRegistry` is the observability plane's numeric store.
It deliberately mirrors the Prometheus data model — counters only go up,
gauges go anywhere — so :meth:`MetricsRegistry.to_prometheus` can render
the standard text exposition format without translation.  There is no
distribution instrument: every tail the program reports is exact, from
the records or the trace (:mod:`repro.obs.analyze`).

Metrics are identified by ``(name, labels)``.  Labels are ordinary
dicts at the call site and frozen into a sorted tuple internally, so
``registry.gauge("repro_queue_depth", labels={"node": "n0"})`` returns
the same instrument every time.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

#: Frozen label form: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Exposition-format grammar for metric and label names.
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _freeze_labels(labels: Mapping[str, object] | None) -> LabelKey:
    if not labels:
        return ()
    frozen = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for key, _ in frozen:
        if not _LABEL_NAME_RE.match(key):
            raise ConfigurationError(
                f"label name {key!r} violates the exposition grammar "
                "([a-zA-Z_][a-zA-Z0-9_]*)"
            )
    return frozen


def _escape_label_value(value: str) -> str:
    """Exposition-format label-value escaping: backslash, quote, newline."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and newline only (quotes stay)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with a cumulative total from an external source.

        For mirroring counters maintained elsewhere (engine/NIC stats)
        into the registry at snapshot time.  Going backwards is the same
        bug :meth:`inc` guards against.
        """
        if value < self.value:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease ({self.value} -> {value})"
            )
        self.value = value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the current value."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the current value."""
        self.value -= amount


#: Any registry instrument.
Instrument = Counter | Gauge


class MetricsRegistry:
    """Named instruments plus the Prometheus text renderer.

    ``counter``/``gauge`` are get-or-create: the first call fixes the
    instrument's type; re-requesting the same name with a different type
    is an error — two components silently writing different shapes to
    one name would corrupt the export.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[tuple[str, LabelKey], Instrument] = {}
        self._help: dict[str, str] = {}
        self._kinds: dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def _get(
        self,
        factory,
        kind: str,
        name: str,
        labels: Mapping[str, object] | None,
        help: str,
    ):
        if not _METRIC_NAME_RE.match(name or ""):
            raise ConfigurationError(
                f"metric name {name!r} violates the exposition grammar "
                "([a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        known_kind = self._kinds.get(name)
        if known_kind is not None and known_kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {known_kind}, not a {kind}"
            )
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = kind
            if help and name not in self._help:
                self._help[name] = help
        return metric

    def counter(
        self, name: str, labels: Mapping[str, object] | None = None, help: str = ""
    ) -> Counter:
        """Get or create the counter at ``(name, labels)``."""
        return self._get(Counter, "counter", name, labels, help)

    def gauge(
        self, name: str, labels: Mapping[str, object] | None = None, help: str = ""
    ) -> Gauge:
        """Get or create the gauge at ``(name, labels)``."""
        return self._get(Gauge, "gauge", name, labels, help)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterable[Instrument]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> Instrument | None:
        """The instrument at ``(name, labels)``, or None."""
        return self._metrics.get((name, _freeze_labels(labels)))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render the standard Prometheus text exposition format."""
        by_name: dict[str, list[Instrument]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines: list[str] = []
        for name, metrics in by_name.items():
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for metric in metrics:
                lines.append(
                    f"{name}{_format_labels(metric.labels)} {_num(metric.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # snapshot (JSON-able full dump, for shipping across processes)
    # ------------------------------------------------------------------
    def to_snapshot(self) -> dict[str, Any]:
        """Serialize every instrument to a JSON-able dict.

        The inverse of :meth:`from_snapshot`.  This is how a live peer
        ships its registry to the coordinator over the JSON-lines
        control protocol (see :mod:`repro.obs.merge` for the cross-peer
        merge semantics).
        """
        metrics = [
            snapshot_entry(metric, self._help.get(name, ""), labels)
            for (name, labels), metric in sorted(self._metrics.items())
        ]
        return {"namespace": self.namespace, "metrics": metrics}

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_snapshot` output."""
        registry = cls(namespace=str(payload.get("namespace", "repro")))
        for entry in payload.get("metrics", ()):
            registry._insert_snapshot_entry(entry)
        return registry

    def _insert_snapshot_entry(self, entry: Mapping[str, Any]) -> None:
        try:
            name = entry["name"]
            kind = entry["kind"]
            labels = _freeze_labels(dict((k, v) for k, v in entry["labels"]))
        except (KeyError, TypeError, ValueError) as bad:
            raise ConfigurationError(f"malformed metric snapshot entry: {bad}") from None
        known_kind = self._kinds.get(name)
        if known_kind is not None and known_kind != kind:
            raise ConfigurationError(f"metric {name!r} is a {known_kind}, not a {kind}")
        key = (name, labels)
        if key in self._metrics:
            raise ConfigurationError(
                f"duplicate snapshot series {name!r} {dict(labels)!r}"
            )
        factory = {"counter": Counter, "gauge": Gauge}.get(kind)
        if factory is None:
            raise ConfigurationError(f"unknown metric kind {kind!r} in snapshot")
        metric = factory(name, labels)
        metric.value = float(entry.get("value", 0.0))
        self._metrics[key] = metric
        self._kinds[name] = kind
        help_text = entry.get("help")
        if help_text and name not in self._help:
            self._help[name] = str(help_text)


def snapshot_entry(
    metric: Instrument,
    help_text: str,
    labels: Iterable[tuple[str, str]],
) -> dict[str, Any]:
    """Snapshot-shaped dict for one instrument under the given labels."""
    return {
        "name": metric.name,
        "kind": metric.kind,
        "labels": [list(pair) for pair in labels],
        "help": help_text,
        "value": metric.value,
    }


def _num(value: float) -> str:
    """Render a sample value (integers without the trailing ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
