"""Parser-based conformance tests for the Prometheus text exposition.

Instead of substring-matching a few expected lines, these tests run the
registry's ``to_prometheus`` output through a small grammar-checking
parser modeled on the exposition-format spec: comment ordering
(HELP before TYPE before samples, one contiguous block per family),
metric/label name character sets, and label-value escaping.
"""

from __future__ import annotations

import re

import pytest

from repro.obs.metrics import MetricsRegistry

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_NAME})(?:\{{(?P<labels>.*)\}})? (?P<value>\S+)$"
)
_HELP_RE = re.compile(rf"^# HELP (?P<name>{_NAME}) (?P<text>.*)$")
_TYPE_RE = re.compile(
    rf"^# TYPE (?P<name>{_NAME}) (?P<kind>counter|gauge|histogram|summary|untyped)$"
)


def _parse_label_block(block: str) -> dict[str, str]:
    """Parse ``k="v",k2="v2"`` honouring the three escape sequences."""
    labels: dict[str, str] = {}
    i = 0
    while i < len(block):
        m = re.match(rf"({_LABEL_NAME})=\"", block[i:])
        assert m, f"bad label syntax at ...{block[i:]!r}"
        key = m.group(1)
        i += m.end()
        value = []
        while True:
            assert i < len(block), "unterminated label value"
            ch = block[i]
            if ch == "\\":
                esc = block[i + 1]
                assert esc in ('"', "\\", "n"), f"invalid escape \\{esc}"
                value.append({"n": "\n"}.get(esc, esc))
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                assert ch != "\n", "raw newline inside a label value"
                value.append(ch)
                i += 1
        assert key not in labels, f"duplicate label {key!r}"
        labels[key] = "".join(value)
        if i < len(block):
            assert block[i] == ",", f"expected ',' at ...{block[i:]!r}"
            i += 1
    return labels


class Exposition:
    """Parsed form of one text exposition, validating as it reads."""

    def __init__(self, text: str) -> None:
        #: family name -> declared kind
        self.types: dict[str, str] = {}
        self.helps: dict[str, str] = {}
        #: series: (sample_name, frozen labels) -> value
        self.samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self._ingest(text)

    def _ingest(self, text: str) -> None:
        assert text == "" or text.endswith("\n"), "exposition must end in newline"
        seen_families: list[str] = []
        current: str | None = None
        for line in text.splitlines():
            assert line.strip(), "blank lines are not emitted"
            if line.startswith("# HELP "):
                m = _HELP_RE.match(line)
                assert m, f"malformed HELP: {line!r}"
                name = m.group("name")
                assert name not in self.helps, f"duplicate HELP for {name}"
                assert name not in self.types, f"HELP after TYPE for {name}"
                self.helps[name] = m.group("text")
                text_part = m.group("text")
                assert "\n" not in text_part
                current = name
                if name not in seen_families:
                    seen_families.append(name)
                continue
            if line.startswith("# TYPE "):
                m = _TYPE_RE.match(line)
                assert m, f"malformed TYPE: {line!r}"
                name = m.group("name")
                assert name not in self.types, f"duplicate TYPE for {name}"
                self.types[name] = m.group("kind")
                if name in seen_families:
                    # HELP (if any) must have immediately preceded.
                    assert current == name, f"TYPE for {name} not after its HELP"
                else:
                    seen_families.append(name)
                current = name
                continue
            assert not line.startswith("#"), f"unknown comment: {line!r}"
            m = _SAMPLE_RE.match(line)
            assert m, f"malformed sample: {line!r}"
            family = m.group("name")
            assert family in self.types, f"sample before TYPE: {line!r}"
            assert family == current, (
                f"sample for {family} outside its contiguous block"
            )
            labels = _parse_label_block(m.group("labels") or "")
            key = (m.group("name"), tuple(sorted(labels.items())))
            assert key not in self.samples, f"duplicate series {key}"
            self.samples[key] = float(m.group("value"))


class TestGrammar:
    def test_empty_registry(self):
        assert Exposition(MetricsRegistry().to_prometheus()).samples == {}

    def test_counter_gauge_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_things_total", {"node": "n0"}, help="Things.").inc(3)
        reg.counter("repro_things_total", {"node": "n1"}).inc(4)
        reg.gauge("repro_depth", {"chan": "a"}, help="Depth.").set(2.5)
        exp = Exposition(reg.to_prometheus())
        assert exp.types["repro_things_total"] == "counter"
        assert exp.types["repro_depth"] == "gauge"
        assert exp.helps["repro_things_total"] == "Things."
        assert exp.samples[("repro_things_total", (("node", "n0"),))] == 3
        assert exp.samples[("repro_things_total", (("node", "n1"),))] == 4
        assert exp.samples[("repro_depth", (("chan", "a"),))] == 2.5

    def test_label_value_escaping_round_trips(self):
        nasty = 'quote:" backslash:\\ newline:\nend'
        reg = MetricsRegistry()
        reg.counter("repro_esc_total", {"path": nasty}).inc()
        exp = Exposition(reg.to_prometheus())
        assert exp.samples[("repro_esc_total", (("path", nasty),))] == 1

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_h_total", help="line\nbreak and \\slash").inc()
        exp = Exposition(reg.to_prometheus())
        # The parser proves no raw newline leaked; the content round-trips
        # through the spec's HELP escapes (\\n and \\\\).
        assert exp.helps["repro_h_total"] == "line\\nbreak and \\\\slash"

    def test_every_family_block_is_contiguous(self):
        reg = MetricsRegistry()
        for node in ("n0", "n1", "n2"):
            reg.counter("repro_a_total", {"node": node}).inc()
            reg.gauge("repro_b", {"node": node}).set(1)
        Exposition(reg.to_prometheus())  # parser asserts contiguity


class TestNameValidation:
    def test_bad_metric_name_rejected(self):
        from repro.util.errors import ConfigurationError

        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("bad name")

    def test_bad_label_name_rejected(self):
        from repro.util.errors import ConfigurationError

        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("repro_ok_total", {"bad-label": "x"})
