"""Mergeable streaming quantile sketches (the fourth instrument kind).

A :class:`QuantileSketch` summarizes an unbounded stream of observations
in bounded memory while answering rank queries (p50/p90/p99/p999) with
bounded *rank* error.  It serves the distributions a running engine or
a sampler reads while the run is in flight (rail service time, sampled
queue depth) and merges across peers without shipping raw samples;
what the trace or the records give exactly (edge and message latency)
is never sketched.

The design is a KLL-style compactor stack, deterministic on purpose:

* Level ``i`` holds values of weight ``2**i`` in an unsorted buffer of
  capacity ``k``.  New observations enter level 0 with weight 1.
* When a level fills, it is sorted and **every other element** is
  promoted to the next level (doubling its weight); the survivors are
  discarded.  The starting parity alternates per level between
  compactions, so successive compactions under- and over-count in
  alternation and the errors largely cancel.
* A rank query bisects the cumulative weights of the value-sorted
  stack; that view is kept between mutations (see ``_ranks``).

Unlike textbook KLL there is no randomness: given the same insertion
order the sketch state is bit-identical, which keeps traced runs
reproducible (the repo-wide determinism contract).  The price is a
worst-case rank error of ``O(log(n/k) / k)`` instead of KLL's
``O(1/k)`` — with the default ``k = 128`` that is well under 1% rank
error at any realistic stream size, and the documented envelope used by
the integration tests is :data:`rank_error_bound`.

Merging concatenates the stacks level-by-level and re-compacts overfull
levels, so ``merge(a, b)`` summarizes exactly the union of both streams
(weights are conserved); quantiles of a merge agree with quantiles of
the pooled stream within the same rank-error envelope, associatively
and commutatively — the property the hypothesis suite asserts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from typing import Any, Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["QuantileSketch", "DEFAULT_K"]

#: Default compactor capacity.  Memory is ``O(k * log(n/k))`` floats;
#: 128 keeps a million-sample sketch under ~20 kB with sub-1% rank error.
DEFAULT_K = 128

#: Beyond this many unread level-0 values one re-sort beats inserting them.
_INSERT_MAX = 16

#: The quantiles every tail speaks in: the Prometheus summary exposition
#: and each :class:`~repro.obs.tails.TailStats`.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99, 0.999)


class QuantileSketch:
    """Deterministic KLL-style mergeable quantile sketch.

    Fits the registry instrument shape (``name``/``labels``/``kind``)
    so :class:`~repro.obs.metrics.MetricsRegistry` can treat it as a
    fourth kind alongside counter/gauge/histogram.
    """

    __slots__ = (
        "name",
        "labels",
        "k",
        "levels",
        "count",
        "total",
        "_min",
        "_max",
        "_parity",
        "_sorted",
        "_sorted0",
        "_running",
    )

    kind = "sketch"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        *,
        k: int = DEFAULT_K,
    ) -> None:
        if k < 8 or k % 2:
            raise ConfigurationError(f"sketch k must be an even int >= 8, got {k}")
        self.name = name
        self.labels = labels
        self.k = k
        #: ``levels[i]`` holds values of weight ``2**i`` (unsorted).
        self.levels: list[list[float]] = [[]]
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        #: Per-level compaction parity (which half survives next time).
        self._parity: list[int] = [0]
        #: Value-sorted ``(values, weights)`` of the levels above 0 and
        #: the first ``_sorted0`` values of level 0 (None once levels are
        #: rewritten); ``_running``: summed weights, None once mutated.
        self._sorted: tuple[list[float], list[int]] | None = None
        self._sorted0 = 0
        self._running: list[int] | None = None

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._running = None
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        level0 = self.levels[0]
        level0.append(value)
        if len(level0) >= self.k:
            self._compact_from(0)

    def _compact_from(self, start: int) -> None:
        """Cascade compactions upward from ``start`` until all fit."""
        self._sorted = None
        i = start
        while i < len(self.levels) and len(self.levels[i]) >= self.k:
            buf = sorted(self.levels[i])
            offset = self._parity[i]
            self._parity[i] ^= 1
            self.levels[i] = []
            if i + 1 == len(self.levels):
                self.levels.append([])
                self._parity.append(0)
            self.levels[i + 1].extend(buf[offset::2])
            i += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ranks(self) -> tuple[list[float], list[int]]:
        """Retained values in ascending order and their running weights.

        Refreshed at most once per mutation.  Between compactions the
        sample only grows at the tail of level 0, so the sorted view is
        kept and the new weight-1 values inserted into it; a compaction,
        merge or long unread backlog rebuilds it (C-level sort).
        Ties may sit in any weight order: a query returns the *value*.
        """
        running = self._running
        if running is None:
            level0 = self.levels[0]
            if self._sorted is None or len(level0) - self._sorted0 > _INSERT_MAX:
                pairs: list[tuple[float, int]] = []
                for i, level in enumerate(self.levels):
                    pairs.extend(zip(level, repeat(1 << i)))
                pairs.sort()
                self._sorted = tuple(map(list, zip(*pairs))) if pairs else ([], [])
            else:
                values, weights = self._sorted
                for value in islice(level0, self._sorted0, None):
                    at = bisect_right(values, value)
                    values.insert(at, value)
                    weights.insert(at, 1)
            self._sorted0 = len(level0)
            running = self._running = list(accumulate(self._sorted[1]))
        return self._sorted[0], running

    def quantile(self, q: float) -> float:
        """Estimated value at rank ``q`` (0..1); exact at q=0 and q=1."""
        return self.quantiles((q,))[0]

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Estimated values at several ranks: one flatten, many ranks."""
        count = self.count
        values, running = self._ranks() if count else ((), ())
        out: list[float] = []
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
            if count == 0:
                out.append(0.0)
            elif q == 0.0:
                out.append(self._min)
            elif q == 1.0:
                out.append(self._max)
            else:
                # First retained value whose running weight reaches the rank.
                index = bisect_left(running, q * count)
                out.append(values[index] if index < len(values) else self._max)
        return out

    def rank_error_bound(self) -> float:
        """Documented worst-case rank-error envelope for this sketch.

        Each compaction at level ``i`` shifts ranks by at most ``2**i``
        relative to a count that has reached ``k * 2**i``; alternating
        parity cancels most of it, but the bound sums one residual per
        level: ``len(levels) / k``, floored at ``1/k`` for tiny streams.
        """
        return max(len(self.levels), 1) / self.k

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other``'s retained state into this sketch (in place).

        Requires equal ``k`` (same resolution contract as histogram
        bucket bounds).  Weights are conserved: the merged sketch
        summarizes the union of both raw streams.
        """
        if other.k != self.k:
            raise ConfigurationError(
                f"cannot merge sketch {other.name!r}: k differs "
                f"({self.k} vs {other.k})"
            )
        while len(self.levels) < len(other.levels):
            self.levels.append([])
            self._parity.append(0)
        for i, level in enumerate(other.levels):
            if level:
                self.levels[i].extend(level)
        for i in range(len(self.levels)):
            if len(self.levels[i]) >= self.k:
                self._compact_from(i)
        self.count += other.count
        self.total += other.total
        if other.count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        self._sorted = self._running = None
        return self

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """JSON-able internal state (the snapshot payload fields)."""
        return {
            "k": self.k,
            "levels": [list(level) for level in self.levels],
            "parity": list(self._parity),
            "count": self.count,
            "total": self.total,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
        }

    @classmethod
    def _restore(
        cls,
        name: str,
        labels: tuple[tuple[str, str], ...],
        state: Mapping[str, Any],
    ) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`state` output."""
        sketch = cls(name, labels, k=int(state.get("k", DEFAULT_K)))
        levels = [list(map(float, level)) for level in state.get("levels", [[]])]
        if not levels:
            levels = [[]]
        parity = [int(p) & 1 for p in state.get("parity", ())]
        if len(parity) != len(levels):
            parity = [0] * len(levels)
        for level in levels:
            if len(level) >= sketch.k:
                raise ConfigurationError(
                    f"sketch snapshot for {name!r} has an overfull level "
                    f"({len(level)} >= k={sketch.k})"
                )
        sketch.levels = levels
        sketch._parity = parity
        sketch.count = int(state.get("count", 0))
        sketch.total = float(state.get("total", 0.0))
        low = state.get("min")
        high = state.get("max")
        sketch._min = float(low) if low is not None else float("inf")
        sketch._max = float(high) if high is not None else float("-inf")
        return sketch
