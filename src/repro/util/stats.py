"""Batch statistics: the one exact-quantile definition
(:func:`percentiles`) and the CLI's :func:`ascii_histogram`."""

from __future__ import annotations

from math import floor, isfinite, isnan, nan
from typing import Sequence

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
    counts, edges = _histogram([float(x) for x in samples], bins)
    peak = max(counts)
    label_pairs = [
        f"{fmt.format(edges[i])} .. {fmt.format(edges[i + 1])}"
        for i in range(len(counts))
    ]
    label_width = max(len(s) for s in label_pairs)
    count_width = len(str(peak))
    lines = []
    for label, count in zip(label_pairs, counts):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{label:>{label_width}}  {count:>{count_width}}  {bar}")
    return "\n".join(lines)


def _histogram(values: list[float], bins: int) -> tuple[list[int], list[float]]:
    """``np.histogram(values, bins)`` in Python: equal-width edges over
    ``[min, max]`` (a constant sample widened by ±0.5), every bin
    half-open but the last, which is closed; same counts and edges."""
    if not all(map(isfinite, values)):
        raise ValueError("autodetected range is not finite")
    first, last = min(values), max(values)
    if first == last:
        first, last = first - 0.5, last + 0.5
    step = (last - first) / bins
    edges = [i * step + first for i in range(bins)] + [last]
    counts = [0] * bins
    for x in values:
        i = min(int((x - first) / (last - first) * bins), bins - 1)
        # numpy's correction for an index a rounding put one bin off
        if x < edges[i]:
            i -= 1
        elif x >= edges[i + 1] and i != bins - 1:
            i += 1
        counts[i] += 1
    return counts, edges
