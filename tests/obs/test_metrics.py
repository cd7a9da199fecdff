"""Tests for the metrics registry and its Prometheus rendering."""

import math
import re

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, QuantileSketch
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
        s = reg.sketch("repro_lat", help="Latency")
        s.observe(1.5)
        s.observe(100.0)
        samples = _parse_prometheus(reg.to_prometheus())
        assert samples['repro_sends_total{nic="n0.mx00"}'] == 7
        assert samples['repro_depth{channel="0",node="n0"}'] == 3
        assert samples['repro_lat{quantile="0.99"}'] == 100.0
        assert samples["repro_lat_count"] == 2
        assert math.isclose(samples["repro_lat_sum"], 101.5)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestSketchInstrument:
    def test_get_or_create_and_kind(self):
        reg = MetricsRegistry()
        a = reg.sketch("repro_s_us", {"src": "n0"})
        b = reg.sketch("repro_s_us", {"src": "n0"})
        assert a is b
        assert isinstance(a, QuantileSketch)
        with pytest.raises(ConfigurationError):
            reg.counter("repro_s_us")  # kind conflict

    def test_sketches_listing(self):
        reg = MetricsRegistry()
        reg.counter("repro_c")
        reg.sketch("repro_s_us", {"x": "1"})
        reg.sketch("repro_s_us", {"x": "0"})
        names = [(s.name, dict(s.labels)["x"]) for s in reg.sketches()]
        assert names == [("repro_s_us", "0"), ("repro_s_us", "1")]

    def test_prometheus_summary_exposition(self):
        reg = MetricsRegistry()
        s = reg.sketch("repro_s_us", {"src": "n0"}, help="edge tails")
        for i in range(100):
            s.observe(float(i))
        text = reg.to_prometheus()
        assert "# TYPE repro_s_us summary" in text
        samples = _parse_prometheus(text)
        assert samples['repro_s_us{src="n0",quantile="0.5"}'] == s.quantile(0.5)
        assert samples['repro_s_us{src="n0",quantile="0.99"}'] == s.quantile(0.99)
        assert samples['repro_s_us_count{src="n0"}'] == 100
        assert math.isclose(
            samples['repro_s_us_sum{src="n0"}'], sum(range(100))
        )

    def test_snapshot_round_trip_through_registry(self):
        reg = MetricsRegistry()
        s = reg.sketch("repro_s_us", {"src": "n0"}, k=16)
        for i in range(1000):
            s.observe(float(i % 97))
        restored = MetricsRegistry.from_snapshot(reg.to_snapshot())
        r = restored.get("repro_s_us", {"src": "n0"})
        assert isinstance(r, QuantileSketch)
        assert r.k == 16
        assert r.count == s.count
        assert r.levels == s.levels
        for q in (0.5, 0.99, 0.999):
            assert r.quantile(q) == s.quantile(q)
