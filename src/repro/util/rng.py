"""Deterministic random-number streams.

Every stochastic component of a scenario (arrival processes, message-size
distributions, load-balancing tie breaks, …) draws from its own named
:class:`RngStream`.  All streams are derived from a single session seed
through :class:`SeedSequenceRegistry`, so

* a whole experiment is reproducible from one integer, and
* adding a new random component does not perturb the draws of existing
  ones (streams are keyed by name, not by creation order).

A stream is a :class:`random.Random` seeded with ``shake_128`` of
``"{seed}:{name}"`` (never ``hash()``, which varies per process), and
every draw is built here from ``random()`` alone: the one method whose
sequence Python keeps stable across versions for a given seed.  So the
draws depend on nothing installed, only on ``(seed, name)``.
"""

from __future__ import annotations

import hashlib
import random
from math import cos, exp, log, pi, sqrt

__all__ = ["RngStream", "SeedSequenceRegistry"]


class RngStream:
    """One named stream of draws on :meth:`random.Random.random`.

    Exposes the handful of draw primitives the library needs, with
    explicit, validated parameters, so workload code stays readable.
    """

    __slots__ = ("name", "_random", "_median", "_mu")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self._random = random.Random(seed).random
        # lognormal_size's last median and its log (a stream draws around one)
        self._median: float | None = None
        self._mu = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream({self.name!r})"

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A single uniform draw in ``[low, high)``."""
        return low + (high - low) * self._random()

    def exponential(self, mean: float) -> float:
        """A single exponential draw with the given mean (> 0): the inverse CDF."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return -mean * log(1.0 - self._random())

    def integers(self, low: int, high: int) -> int:
        """A single integer draw in ``[low, high]`` inclusive, unbiased.

        Scales ``random()`` to the next power of two at or above the span
        (exact: its 53 bits are shifted, not rounded) and rejects what
        lands beyond the span, so a span of at most ``2**53``.
        """
        span = high - low + 1
        if not 1 <= span <= 1 << 53:
            raise ValueError(f"integer range [{low}, {high}] is empty or wider than 2**53")
        scale = 1 << (span - 1).bit_length()
        while (k := int(self._random() * scale)) >= span:
            pass
        return low + k

    def choice(self, items):
        """Pick one element of a non-empty sequence uniformly."""
        seq = list(items)
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.integers(0, len(seq) - 1)]

    def lognormal_size(self, median: float, sigma: float, lo: int, hi: int) -> int:
        """A lognormal byte-size draw clamped to ``[lo, hi]``.

        Used for realistic heavy-tailed middleware payload sizes.  The
        normal is one Box–Muller variate from two fresh ``random()``
        calls (the pair's second variate is not kept).
        """
        if median <= 0 or sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")
        if hi < lo:
            raise ValueError(f"empty size range [{lo}, {hi}]")
        if median != self._median:
            self._median = median
            self._mu = log(median)
        draw = self._random
        z = sqrt(-2.0 * log(1.0 - draw())) * cos(2.0 * pi * draw())
        return int(min(max(exp(self._mu + sigma * z), lo), hi))

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place (Fisher–Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integers(0, i)
            items[i], items[j] = items[j], items[i]


class SeedSequenceRegistry:
    """Derives independent, name-keyed :class:`RngStream` objects.

    The seed of a stream is the first 16 bytes of
    ``shake_128(f"{session_seed}:{name}")``, which is stable across runs,
    processes and unrelated code changes.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream object
        (state is shared), so a component can re-acquire its stream
        without resetting it.
        """
        if name not in self._streams:
            digest = hashlib.shake_128(f"{self.seed}:{name}".encode("utf-8")).digest(16)
            self._streams[name] = RngStream(name, int.from_bytes(digest, "big"))
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)
