"""Tests for the metrics registry and its Prometheus rendering."""

import re

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.util.errors import ConfigurationError


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        c = Counter("c")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_set_total_is_monotonic(self):
        c = Counter("c")
        c.set_total(10)
        with pytest.raises(ConfigurationError):
            c.set_total(9)
        c.set_total(10)  # equal is fine (idempotent snapshot)
        assert c.value == 10


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("g")
        g.set(5)
        g.dec(7)
        g.inc(1)
        assert g.value == -1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x", {"node": "n0"})
        b = reg.counter("repro_x", {"node": "n0"})
        c = reg.counter("repro_x", {"node": "n1"})
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("repro_g", {"a": 1, "b": 2})
        b = reg.gauge("repro_g", {"b": 2, "a": 1})
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("")


# One sample line: name, optional {labels}, numeric value.
_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? '
    r"(([-+]?[0-9.eE+-]+)|\+Inf|-Inf|NaN)$"
)


def _parse_prometheus(text: str) -> dict[str, float]:
    """Minimal parser of the text exposition format; returns series → value."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("#"):
                assert line.startswith("# HELP ") or line.startswith("# TYPE "), line
            continue
        m = _SAMPLE_RE.match(line)
        assert m is not None, f"unparseable sample line: {line!r}"
        series = m.group(1) + (m.group(2) or "")
        assert series not in samples, f"duplicate series: {series}"
        samples[series] = float(m.group(4))
    return samples


class TestPrometheusExport:
    def test_full_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_sends_total", {"nic": "n0.mx00"}, help="Sends").inc(7)
        reg.gauge("repro_depth", {"node": "n0", "channel": "0"}).set(3)
        samples = _parse_prometheus(reg.to_prometheus())
        assert samples['repro_sends_total{nic="n0.mx00"}'] == 7
        assert samples['repro_depth{channel="0",node="n0"}'] == 3

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
