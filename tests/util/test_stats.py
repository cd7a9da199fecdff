"""Tests for repro.util.stats."""

import numpy as np
import pytest

from repro.util.stats import percentiles


class TestPercentiles:
    def test_of_uniform_ramp(self):
        assert percentiles(list(range(101)), [50, 90, 99, 99.9]) == pytest.approx(
            [50.0, 90.0, 99.0, 99.9]
        )

    def test_numpy_default_definition(self):
        """Rank ``p/100 * (n - 1)`` interpolates between the straddling
        order statistics, exactly as ``numpy.percentile``."""
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentiles(samples, [0, 25, 50, 100]) == pytest.approx(
            [1.0, 1.75, 2.5, 4.0]
        )
        rng = np.random.default_rng(7)
        draws = rng.exponential(size=999)
        ps = [50, 90, 99, 99.9, 100]
        assert percentiles(draws, ps) == np.percentile(draws, ps).tolist()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentiles([1.0, 2.0], [101])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentiles([], [50])


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
