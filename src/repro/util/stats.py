"""Batch statistics: the one exact-quantile definition
(:func:`percentiles`) and the CLI's :func:`ascii_histogram`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["percentiles", "ascii_histogram"]


def percentiles(samples: Sequence[float], ps: Sequence[float]) -> list[float]:
    """Exact percentiles ``ps`` (in percent, 0..100) of a non-empty sample.

    numpy's default (linear) definition: rank ``p/100 * (n - 1)``
    interpolates between the two straddling order statistics.  Every
    exact tail the program reports — report latencies, per-edge trace
    tables — comes from here.
    """
    if len(samples) == 0:
        raise ValueError("cannot take percentiles of an empty sample")
    return np.percentile(np.asarray(samples, dtype=float), ps).tolist()


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
