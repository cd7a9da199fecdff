"""Tests for repro.util.stats."""

import pytest

from repro.util.stats import Percentiles


class TestPercentiles:
    def test_of_uniform_ramp(self):
        p = Percentiles.of(list(range(101)))
        assert p.p50 == pytest.approx(50.0)
        assert p.p90 == pytest.approx(90.0)
        assert p.p99 == pytest.approx(99.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Percentiles.of([])


class TestAsciiHistogram:
    def test_renders_bars(self):
        from repro.util.stats import ascii_histogram

        out = ascii_histogram([1.0] * 10 + [5.0] * 2, bins=4, width=20)
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].count("#") == 20  # fullest bin at full width
        assert "10" in lines[0]

    def test_empty_rejected(self):
        from repro.util.stats import ascii_histogram

        with pytest.raises(ValueError):
            ascii_histogram([])

    def test_parameter_validation(self):
        from repro.util.stats import ascii_histogram

        with pytest.raises(ValueError):
            ascii_histogram([1.0], bins=0)
        with pytest.raises(ValueError):
            ascii_histogram([1.0], width=0)

    def test_single_value(self):
        from repro.util.stats import ascii_histogram

        out = ascii_histogram([3.0], bins=3)
        assert "#" in out
