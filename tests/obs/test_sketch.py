"""Property tests for the deterministic KLL-style quantile sketch.

The sketch's contracts are algebraic, so they get algebraic tests:

* quantile answers agree with exact sorted-list quantiles within the
  documented rank-error envelope, including adversarial distributions
  (sorted, reverse-sorted, heavy duplicates, bimodal);
* merge is associative and commutative up to rank error — merged
  quantiles match quantiles of the pooled stream;
* snapshot -> restore is an identity on observable behavior;
* shift equals having corrected every sample before insertion.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import DEFAULT_K, QuantileSketch
from repro.obs.tails import TAIL_QUANTILES
from repro.util.errors import ConfigurationError

_values = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, width=32),
    min_size=1,
    max_size=2000,
)

#: Adversarial fixed streams the fuzzer is unlikely to produce verbatim.
_ADVERSARIAL = [
    sorted(float(i) for i in range(5000)),
    sorted((float(i) for i in range(5000)), reverse=True),
    [7.0] * 4000 + [1e6] * 40,  # heavy duplicates with a far tail
    [0.0, 1e9] * 1500,  # bimodal
    [float(i % 13) for i in range(6000)],  # periodic
]


def _sketch_of(values, *, k=DEFAULT_K) -> QuantileSketch:
    s = QuantileSketch("s", k=k)
    for v in values:
        s.observe(v)
    return s


def _exact_quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile over a sorted list."""
    idx = min(int(math.ceil(q * len(ordered))) - 1, len(ordered) - 1)
    return ordered[max(idx, 0)]


def _rank_of(ordered: list[float], value: float) -> float:
    """Fraction of samples <= value (the sketch's rank space)."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo / len(ordered)


def _assert_within_rank_error(values, sketch, quantiles=(0.5, 0.99)):
    ordered = sorted(values)
    # The answered value's true rank must be within the documented
    # envelope of the asked rank (plus 1/n nearest-rank slack).
    bound = sketch.rank_error_bound() + 1.0 / len(ordered)
    for q in quantiles:
        answer = sketch.quantile(q)
        rank = _rank_of(ordered, answer)
        # rank_of counts <=, so the answer's rank interval is
        # [rank_of(answer-) , rank_of(answer)]; accept either side.
        rank_lo = _rank_of(ordered, math.nextafter(answer, -math.inf))
        assert rank_lo - bound <= q <= rank + bound, (
            f"q={q}: answered {answer} with true rank "
            f"[{rank_lo:.4f}, {rank:.4f}], bound {bound:.4f}"
        )


class TestQuantileAccuracy:
    @given(values=_values)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sorted_list_within_rank_error(self, values):
        _assert_within_rank_error(values, _sketch_of(values))

    @pytest.mark.parametrize("stream", _ADVERSARIAL, ids=range(len(_ADVERSARIAL)))
    def test_adversarial_distributions(self, stream):
        _assert_within_rank_error(stream, _sketch_of(stream))

    def test_exact_while_unfilled(self):
        # Below k samples nothing has compacted: answers are exact.
        values = [float(v) for v in (5, 1, 9, 3, 7)]
        s = _sketch_of(values)
        ordered = sorted(values)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert s.quantile(q) == _exact_quantile(ordered, q) or q == 0.0

    def test_min_max_mean_exact(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0] * 100
        s = _sketch_of(values, k=8)
        assert s.minimum == 1.0
        assert s.maximum == 9.0
        assert s.quantile(0.0) == 1.0
        assert s.quantile(1.0) == 9.0
        assert math.isclose(s.mean, sum(values) / len(values))

    def test_validation(self):
        s = _sketch_of([1.0])
        with pytest.raises(ConfigurationError):
            s.quantile(1.5)
        with pytest.raises(ConfigurationError):
            QuantileSketch("s", k=7)
        with pytest.raises(ConfigurationError):
            QuantileSketch("s", k=4)

    def test_deterministic_given_insertion_order(self):
        values = [float((i * 7919) % 1000) for i in range(10_000)]
        a, b = _sketch_of(values), _sketch_of(values)
        assert a.levels == b.levels
        assert a.quantile(0.99) == b.quantile(0.99)

    def test_bounded_memory(self):
        s = _sketch_of([float(i) for i in range(100_000)], k=32)
        retained = sum(len(level) for level in s.levels)
        assert retained <= 32 * len(s.levels)
        assert len(s.levels) <= 18  # ~log2(n/k) + slack


class TestMerge:
    @given(a=_values, b=_values)
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_pooled_stream(self, a, b):
        merged = _sketch_of(a).merge(_sketch_of(b))
        assert merged.count == len(a) + len(b)
        assert math.isclose(
            merged.total, sum(a) + sum(b), rel_tol=1e-6, abs_tol=1e-6
        )
        _assert_within_rank_error(a + b, merged)

    @given(a=_values, b=_values)
    @settings(max_examples=40, deadline=None)
    def test_commutative_up_to_rank_error(self, a, b):
        ab = _sketch_of(a).merge(_sketch_of(b))
        ba = _sketch_of(b).merge(_sketch_of(a))
        pooled = a + b
        _assert_within_rank_error(pooled, ab)
        _assert_within_rank_error(pooled, ba)
        assert ab.count == ba.count
        assert ab.minimum == ba.minimum and ab.maximum == ba.maximum

    @given(a=_values, b=_values, c=_values)
    @settings(max_examples=30, deadline=None)
    def test_associative_up_to_rank_error(self, a, b, c):
        left = _sketch_of(a).merge(_sketch_of(b)).merge(_sketch_of(c))
        right = _sketch_of(a).merge(_sketch_of(b).merge(_sketch_of(c)))
        pooled = a + b + c
        _assert_within_rank_error(pooled, left)
        _assert_within_rank_error(pooled, right)
        assert left.count == right.count == len(pooled)

    def test_k_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch("s", k=16).merge(QuantileSketch("s", k=32))

    def test_merge_empty_is_identity(self):
        values = [float(i) for i in range(500)]
        s = _sketch_of(values)
        before = [list(level) for level in s.levels]
        s.merge(QuantileSketch("s"))
        assert [list(level) for level in s.levels] == before


class TestSnapshotRestore:
    @given(values=_values)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, values):
        s = _sketch_of(values)
        restored = QuantileSketch._restore(s.name, s.labels, s.state())
        assert restored.count == s.count
        assert restored.levels == s.levels
        assert restored.minimum == s.minimum
        assert restored.maximum == s.maximum
        for q in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert restored.quantile(q) == s.quantile(q)

    def test_restore_continues_observing(self):
        s = _sketch_of([float(i) for i in range(300)])
        restored = QuantileSketch._restore(s.name, s.labels, s.state())
        restored.observe(1e6)
        assert restored.count == 301
        assert restored.maximum == 1e6

    def test_empty_round_trip(self):
        s = QuantileSketch("s")
        restored = QuantileSketch._restore("s", (), s.state())
        assert restored.count == 0
        assert math.isinf(restored._min)


class TestShift:
    def test_shift_equals_pre_corrected_samples(self):
        values = [float((i * 31) % 977) for i in range(3000)]
        delta = 41.5
        shifted = _sketch_of(values)
        shifted.shift(delta)
        corrected = _sketch_of([v + delta for v in values])
        assert shifted.levels == corrected.levels
        assert shifted.minimum == corrected.minimum
        assert shifted.maximum == corrected.maximum
        for q in (0.5, 0.99):
            assert shifted.quantile(q) == corrected.quantile(q)

    def test_floor_clamps(self):
        s = _sketch_of([1.0, 2.0, 3.0])
        s.shift(-2.5, floor=0.0)
        assert s.minimum == 0.0
        assert s.quantile(1.0) == 0.5


# ----------------------------------------------------------------------
# the rank query, pinned to the implementation it replaced
# ----------------------------------------------------------------------
def _oracle_quantile(sketch: QuantileSketch, q: float) -> float:
    """``QuantileSketch.quantile`` as it was before the sorted view was
    kept between mutations: flatten every level into ``(value, weight)``
    pairs, sort them by value, walk the running weight."""
    if sketch.count == 0:
        return 0.0
    if q == 0.0:
        return sketch._min
    if q == 1.0:
        return sketch._max
    pairs = [
        (v, 1 << i) for i, level in enumerate(sketch.levels) for v in level
    ]
    pairs.sort(key=lambda p: p[0])
    target = q * sketch.count
    running = 0
    for value, weight in pairs:
        running += weight
        if running >= target:
            return value
    return sketch._max


_ORACLE_RANKS = (0.0, *TAIL_QUANTILES, 1.0)

_small_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32),
    max_size=600,
)


class TestRankQueryOracle:
    @staticmethod
    def _assert_identical(sketch: QuantileSketch) -> None:
        expected = [_oracle_quantile(sketch, q) for q in _ORACLE_RANKS]
        assert sketch.quantiles(_ORACLE_RANKS) == expected
        assert [sketch.quantile(q) for q in _ORACLE_RANKS] == expected

    @given(
        _small_values,
        _small_values,
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        st.sampled_from([8, 16, DEFAULT_K]),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_floats_across_observe_merge_shift(
        self, a, b, delta, k, every
    ):
        """Any interleaving of reads with observe/merge/shift answers
        every rank with the float the full re-flatten would."""
        sketch = QuantileSketch("s", k=k)
        for n, value in enumerate(a):
            sketch.observe(value)
            if n % every == 0:  # reads between mutations reuse the view
                self._assert_identical(sketch)
        self._assert_identical(sketch)
        sketch.merge(_sketch_of(b, k=k))
        self._assert_identical(sketch)
        sketch.shift(delta, floor=0.0)
        self._assert_identical(sketch)
        for value in b[:50]:
            sketch.observe(value)
        self._assert_identical(sketch)

    def test_unread_backlog_takes_the_resort_path(self):
        sketch = _sketch_of([float(i % 17) for i in range(40)])
        self._assert_identical(sketch)
        for i in range(100):  # more than _INSERT_MAX new values, unread
            sketch.observe(float((i * 7) % 23))
        self._assert_identical(sketch)

    def test_fraction_above_counts_retained_weight(self):
        sketch = _sketch_of([float(i) for i in range(1000)])
        for threshold in (-1.0, 0.0, 499.5, 998.0, 999.0, 5000.0):
            above = sum(
                (1 << i) * sum(1 for v in level if v > threshold)
                for i, level in enumerate(sketch.levels)
            )
            retained = sum(len(level) << i for i, level in enumerate(sketch.levels))
            assert sketch.fraction_above(threshold) == above / retained
