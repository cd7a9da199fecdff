"""Time-series metrics primitives: counters, gauges, log-bucketed histograms.

A :class:`MetricsRegistry` is the observability plane's numeric store.
It deliberately mirrors the Prometheus data model — counters only go up,
gauges go anywhere, histograms keep cumulative bucket counts — so
:meth:`MetricsRegistry.to_prometheus` can render the standard text
exposition format without translation.

Metrics are identified by ``(name, labels)``.  Labels are ordinary
dicts at the call site and frozen into a sorted tuple internally, so
``registry.gauge("repro_queue_depth", labels={"node": "n0"})`` returns
the same instrument every time.

Histograms are **log-bucketed**: bucket upper bounds grow geometrically
(default ×2) from ``base``, which keeps tail resolution over the many
orders of magnitude queue depths and wait times span without
hand-tuning bucket lists per metric.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

from repro.obs.sketch import DEFAULT_K, SUMMARY_QUANTILES, QuantileSketch
from repro.util.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "QuantileSketch", "MetricsRegistry"]

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


def _format_labels(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
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


class Histogram:
    """Log-bucketed distribution with cumulative Prometheus semantics.

    Bucket *i* holds observations ``<= base * growth**i``; one final
    implicit ``+Inf`` bucket catches the rest.  ``n_buckets`` finite
    buckets therefore span ``base`` … ``base * growth**(n_buckets-1)``.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "inf_count", "total", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        *,
        base: float = 1.0,
        growth: float = 2.0,
        n_buckets: int = 16,
    ) -> None:
        if base <= 0:
            raise ConfigurationError(f"histogram base must be > 0, got {base}")
        if growth <= 1.0:
            raise ConfigurationError(f"histogram growth must be > 1, got {growth}")
        if n_buckets < 1:
            raise ConfigurationError(f"histogram needs >= 1 bucket, got {n_buckets}")
        self.name = name
        self.labels = labels
        self.bounds: tuple[float, ...] = tuple(
            base * growth**i for i in range(n_buckets)
        )
        self.counts = [0] * n_buckets
        self.inf_count = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        bounds = self.bounds
        if value > bounds[-1]:
            self.inf_count += 1
            return
        # Geometric bounds: binary search beats a linear walk only past
        # ~30 buckets; defaults sit well under that, so walk.
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.counts[i] += 1
                return

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.inf_count))
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Finds the bucket containing rank ``q * count`` and linearly
        interpolates within it, so the estimate is exact to within one
        bucket's width — with geometric bounds, a *relative* error of at
        most ``growth - 1``.  The +Inf bucket has no upper bound, so
        ranks landing there return the last finite bound (a documented
        underestimate; use a sketch when the tail matters).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if n and running + n >= target:
                fraction = (target - running) / n
                return lower + fraction * (bound - lower)
            running += n
            lower = bound
        return self.bounds[-1]

    @classmethod
    def _restore(
        cls,
        name: str,
        labels: LabelKey,
        bounds: tuple[float, ...],
        counts: list[int],
        inf_count: int,
        total: float,
        count: int,
    ) -> "Histogram":
        """Rebuild a histogram from snapshot state, bypassing bucket setup."""
        if len(bounds) != len(counts) or not bounds:
            raise ConfigurationError(
                f"histogram snapshot for {name!r} has {len(bounds)} bounds "
                f"but {len(counts)} counts"
            )
        hist = object.__new__(cls)
        hist.name = name
        hist.labels = labels
        hist.bounds = tuple(float(b) for b in bounds)
        hist.counts = [int(c) for c in counts]
        hist.inf_count = int(inf_count)
        hist.total = float(total)
        hist.count = int(count)
        return hist


class MetricsRegistry:
    """Named instruments plus the Prometheus text renderer.

    ``counter``/``gauge``/``histogram``/``sketch`` are get-or-create:
    the first call fixes the instrument's type and (for histograms)
    bucketing; re-requesting the same name with a different type is an
    error — two components silently writing different shapes to one
    name would corrupt the export.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[
            tuple[str, LabelKey], Counter | Gauge | Histogram | QuantileSketch
        ] = {}
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
        **kwargs,
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
            metric = factory(name, key[1], **kwargs)
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

    def histogram(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        help: str = "",
        *,
        base: float = 1.0,
        growth: float = 2.0,
        n_buckets: int = 16,
    ) -> Histogram:
        """Get or create the histogram (bucketing fixed on first call)."""
        return self._get(
            Histogram,
            "histogram",
            name,
            labels,
            help,
            base=base,
            growth=growth,
            n_buckets=n_buckets,
        )

    def sketch(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        help: str = "",
        *,
        k: int = DEFAULT_K,
    ) -> QuantileSketch:
        """Get or create the quantile sketch (``k`` fixed on first call)."""
        return self._get(QuantileSketch, "sketch", name, labels, help, k=k)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __iter__(self) -> "Iterable[Counter | Gauge | Histogram | QuantileSketch]":
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> "Counter | Gauge | Histogram | QuantileSketch | None":
        """The instrument at ``(name, labels)``, or None."""
        return self._metrics.get((name, _freeze_labels(labels)))

    def sketches(self) -> "Iterable[QuantileSketch]":
        """All sketch instruments, in sorted ``(name, labels)`` order."""
        return [
            metric
            for (_, _), metric in sorted(self._metrics.items())
            if isinstance(metric, QuantileSketch)
        ]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render the standard Prometheus text exposition format."""
        by_name: dict[str, list[Counter | Gauge | Histogram | QuantileSketch]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines: list[str] = []
        for name, metrics in by_name.items():
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            # Sketches render as the Prometheus `summary` type: the
            # exposition format has no native sketch kind, and summary
            # (pre-computed quantiles + sum + count) is exactly the view
            # a scraper wants.
            exposed_kind = "summary" if self._kinds[name] == "sketch" else self._kinds[name]
            lines.append(f"# TYPE {name} {exposed_kind}")
            for metric in metrics:
                if isinstance(metric, Histogram):
                    for bound, cum in metric.cumulative():
                        le = "+Inf" if bound == float("inf") else _num(bound)
                        label_text = _format_labels(metric.labels, (("le", le),))
                        lines.append(f"{name}_bucket{label_text} {cum}")
                    label_text = _format_labels(metric.labels)
                    lines.append(f"{name}_sum{label_text} {_num(metric.total)}")
                    lines.append(f"{name}_count{label_text} {metric.count}")
                elif isinstance(metric, QuantileSketch):
                    for q in SUMMARY_QUANTILES:
                        label_text = _format_labels(
                            metric.labels, (("quantile", _num(q)),)
                        )
                        lines.append(f"{name}{label_text} {_num(metric.quantile(q))}")
                    label_text = _format_labels(metric.labels)
                    lines.append(f"{name}_sum{label_text} {_num(metric.total)}")
                    lines.append(f"{name}_count{label_text} {metric.count}")
                else:
                    label_text = _format_labels(metric.labels)
                    lines.append(f"{name}{label_text} {_num(metric.value)}")
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
        metric: Counter | Gauge | Histogram | QuantileSketch
        if kind == "counter":
            metric = Counter(name, labels)
            metric.value = float(entry.get("value", 0.0))
        elif kind == "gauge":
            metric = Gauge(name, labels)
            metric.value = float(entry.get("value", 0.0))
        elif kind == "histogram":
            metric = Histogram._restore(
                name,
                labels,
                tuple(entry.get("bounds", ())),
                list(entry.get("counts", ())),
                int(entry.get("inf_count", 0)),
                float(entry.get("total", 0.0)),
                int(entry.get("count", 0)),
            )
        elif kind == "sketch":
            metric = QuantileSketch._restore(name, labels, entry)
        else:
            raise ConfigurationError(f"unknown metric kind {kind!r} in snapshot")
        self._metrics[key] = metric
        self._kinds[name] = kind
        help_text = entry.get("help")
        if help_text and name not in self._help:
            self._help[name] = str(help_text)


def snapshot_entry(
    metric: "Counter | Gauge | Histogram | QuantileSketch",
    help_text: str,
    labels: Iterable[tuple[str, str]],
) -> dict[str, Any]:
    """Snapshot-shaped dict for one instrument under the given labels."""
    entry: dict[str, Any] = {
        "name": metric.name,
        "kind": metric.kind,
        "labels": [list(pair) for pair in labels],
        "help": help_text,
    }
    if isinstance(metric, Histogram):
        entry.update(
            bounds=list(metric.bounds),
            counts=list(metric.counts),
            inf_count=metric.inf_count,
            total=metric.total,
            count=metric.count,
        )
    elif isinstance(metric, QuantileSketch):
        entry.update(metric.state())
    else:
        entry["value"] = metric.value
    return entry


def _num(value: float) -> str:
    """Render a sample value (integers without the trailing ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
