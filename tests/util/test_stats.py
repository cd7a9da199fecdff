"""Tests for repro.util.stats."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.stats import percentiles


def _bits(values):
    """The IEEE-754 bit patterns, so ``-0.0`` and ``0.0`` differ."""
    return [struct.pack("<d", v) for v in values]


#: Finite floats, subnormals and values near the top of the range (whose
#: differences overflow), drawn from a small pool now and then so ties
#: are common.
_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_values = st.one_of(
    _finite,
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e-310, 1e308, -1e308]),
)
_samples = st.one_of(
    st.lists(_values, min_size=1, max_size=2000),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 1e300]), min_size=1, max_size=2000),
)
_ps = st.lists(
    st.one_of(
        st.sampled_from([0, 100, 0.0, 100.0, 50, 99.9]),
        st.floats(0.0, 100.0),
    ),
    min_size=1,
    max_size=8,
)


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

    @given(_samples, _ps)
    @example([-0.0], [0, 50, 100])  # the sign of a zero survives as numpy's
    @example([-1.0, -0.0, -0.0], [50, 75, 100])
    @example([-1e308, 1e308], [0, 50, 100])  # b - a overflows to inf
    # Both zero signs: a stable sort and numpy's partition order the equal
    # zeros differently (ours 0.0 at p55, numpy -0.0).
    @example(
        [0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0],
        [0, 55.0],
    )
    def test_bit_identical_to_numpy(self, samples, ps):
        """Always equal in value; bit-identical unless the sample mixes
        signed zeros, whose order (and so the sign of a zero result) is
        numpy's partition's to pick."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflowing lerps
            expected = np.percentile(np.asarray(samples, dtype=float), ps).tolist()
        got = percentiles(samples, ps)
        signs = {math.copysign(1.0, v) for v in samples if v == 0.0}
        if len(signs) == 2:
            np.testing.assert_array_equal(got, expected)  # -0.0 == 0.0
        else:
            assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("p", [-1e-9, -1, 100.00001, 101, math.nan, math.inf])
    def test_every_out_of_range_p_rejected(self, p):
        with pytest.raises(ValueError):
            np.percentile([1.0, 2.0], [50, p])
        with pytest.raises(ValueError):
            percentiles([1.0, 2.0], [50, p])

    @given(st.lists(_finite, max_size=50), st.integers(0, 50), _ps)
    def test_a_nan_sample_gives_nan_like_numpy(self, samples, at, ps):
        samples.insert(min(at, len(samples)), math.nan)
        assert all(math.isnan(v) for v in np.percentile(samples, ps))
        assert all(math.isnan(v) for v in percentiles(samples, ps))

    def test_returns_python_floats(self):
        values = percentiles([3, 1, 2], (0, 50, 100))
        assert values == [1.0, 2.0, 3.0]
        assert all(type(v) is float for v in values)


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
