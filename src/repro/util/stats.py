"""Batch statistics: the one exact-quantile definition
(:func:`percentiles`) and the CLI's :func:`ascii_histogram`."""

from __future__ import annotations

from math import floor, isnan, nan
from typing import Sequence

import numpy as np

__all__ = ["percentiles", "ascii_histogram"]


def percentiles(samples: Sequence[float], ps: Sequence[float]) -> list[float]:
    """Exact percentiles ``ps`` (in percent, 0..100) of a non-empty sample.

    numpy's default (``linear``) definition, computed in Python over one
    ``sorted`` copy and always equal in value to ``np.percentile``: the
    rank ``(n - 1) * (p / 100)`` interpolates between the two straddling
    order statistics with numpy's own lerp.  The result is bit-identical
    too unless the sample mixes ``0.0`` and ``-0.0``: the stable sort and
    numpy's partition leave equal zeros in different orders, so numpy's
    order picks the sign of a zero result.  A sample holding a NaN
    gives NaN for every ``p``, as numpy does.  Every exact tail the
    program reports — report latencies, per-edge trace tables, the rail
    order's p99 — comes from here.  (``np.percentile`` itself would
    import ``numpy.ma`` into every run that reports.)
    """
    if len(samples) == 0:
        raise ValueError("cannot take percentiles of an empty sample")
    qs = [p / 100 for p in ps]
    if not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError("Percentiles must be in the range [0, 100]")
    ordered = sorted(map(float, samples))
    if any(map(isnan, ordered)):
        return [nan] * len(qs)
    last = len(ordered) - 1
    out = []
    for q in qs:
        rank = last * q
        if rank >= last:  # numpy's "above bounds": both neighbours are the max
            low = high = ordered[last]
            t = rank + 1
        else:
            i = floor(rank)
            low, high = ordered[i], ordered[i + 1]
            t = rank - i
        diff = high - low
        out.append(low + diff * t if t < 0.5 else high - diff * (1 - t))
    return out


def ascii_histogram(
    samples: Sequence[float],
    *,
    bins: int = 12,
    width: int = 40,
    fmt: str = "{:.3g}",
) -> str:
    """Render a horizontal ASCII histogram of a non-empty sample batch.

    One row per bin: ``[lo, hi) count  ####``.  Used by the CLI to show
    latency distributions without plotting dependencies.
    """
    if len(samples) == 0:
        raise ValueError("cannot histogram an empty sample")
    if bins < 1 or width < 1:
        raise ValueError("bins and width must be >= 1")
    arr = np.asarray(samples, dtype=float)
    counts, edges = np.histogram(arr, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    label_pairs = [
        f"{fmt.format(edges[i])} .. {fmt.format(edges[i + 1])}"
        for i in range(len(counts))
    ]
    label_width = max(len(s) for s in label_pairs)
    count_width = len(str(int(counts.max())))
    lines = []
    for label, count in zip(label_pairs, counts):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{label:>{label_width}}  {count:>{count_width}}  {bar}")
    return "\n".join(lines)
