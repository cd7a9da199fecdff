"""Deterministic random-number streams.

Every stochastic component of a scenario (arrival processes, message-size
distributions, load-balancing tie breaks, …) draws from its own named
:class:`RngStream`.  All streams are derived from a single session seed
through :class:`SeedSequenceRegistry`, so

* a whole experiment is reproducible from one integer, and
* adding a new random component does not perturb the draws of existing
  ones (streams are keyed by name, not by creation order).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngStream", "SeedSequenceRegistry"]


class RngStream:
    """A named wrapper around :class:`numpy.random.Generator`.

    Exposes the handful of draw primitives the library needs, with
    explicit, validated parameters, so workload code stays readable.
    """

    __slots__ = ("name", "_gen", "_median", "_mu")

    def __init__(self, name: str, generator: np.random.Generator) -> None:
        self.name = name
        self._gen = generator
        # lognormal_size's last median and its log (a stream draws around one)
        self._median: float | None = None
        self._mu = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream({self.name!r})"

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for bulk/vectorised draws."""
        return self._gen

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A single uniform draw in ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """A single exponential draw with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return float(self._gen.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        """A single integer draw in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return int(self._gen.integers(low, high + 1))

    def choice(self, items):
        """Pick one element of a non-empty sequence uniformly."""
        seq = list(items)
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def lognormal_size(self, median: float, sigma: float, lo: int, hi: int) -> int:
        """A lognormal byte-size draw clamped to ``[lo, hi]``.

        Used for realistic heavy-tailed middleware payload sizes.
        """
        if median <= 0 or sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")
        if hi < lo:
            raise ValueError(f"empty size range [{lo}, {hi}]")
        if median != self._median:
            self._median = median
            self._mu = np.log(median)
        value = float(self._gen.lognormal(self._mu, sigma))
        return int(min(max(value, lo), hi))

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._gen.shuffle(items)


class SeedSequenceRegistry:
    """Derives independent, name-keyed :class:`RngStream` objects.

    The child seed for a stream is ``(session_seed, crc32(name))``, which
    is stable across runs and across unrelated code changes.
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
            child = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
            )
            self._streams[name] = RngStream(name, np.random.Generator(np.random.PCG64(child)))
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)
