"""Tests for repro.util.rng: determinism, stream independence, pinned
draws, and each primitive against its distribution."""

import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.util.rng import SeedSequenceRegistry

ROOT = Path(__file__).resolve().parents[2]


class TestSeedSequenceRegistry:
    def test_same_seed_same_draws(self):
        a = SeedSequenceRegistry(seed=42).stream("arrivals")
        b = SeedSequenceRegistry(seed=42).stream("arrivals")
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeedSequenceRegistry(seed=1).stream("arrivals")
        b = SeedSequenceRegistry(seed=2).stream("arrivals")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_streams_keyed_by_name_not_order(self):
        """Creating extra streams must not perturb an existing stream."""
        reg1 = SeedSequenceRegistry(seed=7)
        s1 = reg1.stream("sizes")
        draws_alone = [s1.uniform() for _ in range(5)]

        reg2 = SeedSequenceRegistry(seed=7)
        reg2.stream("something-else")  # created first this time
        s2 = reg2.stream("sizes")
        assert draws_alone == [s2.uniform() for _ in range(5)]

    def test_stream_identity_cached(self):
        reg = SeedSequenceRegistry(seed=0)
        assert reg.stream("x") is reg.stream("x")

    def test_contains_and_len(self):
        reg = SeedSequenceRegistry(seed=0)
        assert "x" not in reg
        reg.stream("x")
        assert "x" in reg
        assert len(reg) == 1

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceRegistry(seed=-1)


class TestRngStream:
    @pytest.fixture
    def stream(self):
        return SeedSequenceRegistry(seed=123).stream("test")

    def test_uniform_range(self, stream):
        for _ in range(100):
            v = stream.uniform(2.0, 3.0)
            assert 2.0 <= v < 3.0

    def test_exponential_positive(self, stream):
        assert all(stream.exponential(1e-6) > 0 for _ in range(100))

    def test_exponential_mean_validation(self, stream):
        with pytest.raises(ValueError):
            stream.exponential(0.0)

    def test_exponential_mean_approx(self, stream):
        draws = [stream.exponential(5.0) for _ in range(4000)]
        assert statistics.fmean(draws) == pytest.approx(5.0, rel=0.1)

    def test_lognormal_size_clamped(self, stream):
        for _ in range(200):
            v = stream.lognormal_size(median=1024, sigma=2.0, lo=64, hi=4096)
            assert 64 <= v <= 4096
            assert isinstance(v, int)

    def test_lognormal_size_draws_unchanged(self):
        """The memoized log median draws what the plain expression draws:
        ``exp(log(median) + sigma * z)``, ``z`` one Box–Muller normal
        made of the stream's next two ``random()`` values."""
        stream = SeedSequenceRegistry(seed=7).stream("sizes")
        reference = SeedSequenceRegistry(seed=7).stream("sizes")
        medians = [64, 128.0, 128, 512, 64] * 2_000
        drawn = [stream.lognormal_size(m, 0.5, lo=1, hi=4 * 512) for m in medians]
        expected = []
        for m in medians:
            u1, u2 = reference.uniform(), reference.uniform()
            z = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
            expected.append(int(min(max(math.exp(math.log(m) + 0.5 * z), 1), 4 * 512)))
        assert drawn == expected

    def test_lognormal_size_validation(self, stream):
        with pytest.raises(ValueError):
            stream.lognormal_size(median=0, sigma=1.0, lo=1, hi=2)
        with pytest.raises(ValueError):
            stream.lognormal_size(median=10, sigma=1.0, lo=5, hi=4)


def _fresh():
    return SeedSequenceRegistry(seed=2006).stream("golden")


#: The first 8 draws of every primitive from a fresh stream ``golden`` at
#: seed 2006.  They rest on nothing installed, only on ``random.Random``
#: and ``shake_128``, so every supported interpreter must give them; a red
#: one means a stream or a primitive changed, and so does every value
#: pinned downstream of the draws.
_GOLDEN = {
    "uniform": (
        lambda s: [s.uniform() for _ in range(8)],
        [0.35482704721165337, 0.2341933207143625, 0.11248687475175201,
         0.012576087874192177, 0.45729958181431574, 0.33369130304829675,
         0.4160160021729121, 0.8043726622138325],
    ),
    "uniform(-1, 3)": (
        lambda s: [s.uniform(-1.0, 3.0) for _ in range(8)],
        [0.41930818884661347, -0.06322671714255002, -0.550052500992992,
         -0.9496956485032313, 0.829198327257263, 0.334765212193187,
         0.6640640086916485, 2.21749064885533],
    ),
    "exponential": (
        lambda s: [s.exponential(2.0) for _ in range(8)],
        [0.8764737085452035, 0.5336510360113165, 0.23866393745962428,
         0.025311672374563998, 1.2223956546959331, 0.8120044137846834,
         1.0757633950206753, 3.2630875348289963],
    ),
    "lognormal_size": (
        lambda s: [s.lognormal_size(1024, 1.0, 1, 1 << 20) for _ in range(8)],
        [1123, 1666, 587, 1449, 213, 3536, 831, 694],
    ),
}


class TestGoldenDraws:
    @pytest.mark.parametrize("primitive", sorted(_GOLDEN))
    def test_first_draws_are_pinned(self, primitive):
        draw, expected = _GOLDEN[primitive]
        assert draw(_fresh()) == expected

    def test_a_run_does_not_depend_on_the_hash_seed(self):
        """Streams are keyed through ``shake_128``, never ``hash()``: two
        fresh interpreters with different hash seeds print the same run."""
        outputs = []
        for hash_seed in ("1", "2"):
            fresh = subprocess.run(
                [sys.executable, "-m", "repro", "run", "--json",
                 str(ROOT / "examples" / "scenario_mixed.json")],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed},
            )
            outputs.append(fresh.stdout)
        assert outputs[0] == outputs[1]
        assert b'"messages": 827' in outputs[0]


_N = 10_000
#: Kolmogorov's 1 % critical value for the distance at ``_N`` draws.
_KS_BOUND = 1.63 / math.sqrt(_N)


def _ks_distance(draws, cdf) -> float:
    """Largest gap between the empirical CDF of ``draws`` and ``cdf``."""
    ordered = sorted(draws)
    n = len(ordered)
    return max(max((i + 1) / n - cdf(x), cdf(x) - i / n) for i, x in enumerate(ordered))


def _normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


class TestDistributions:
    """Each primitive against its law: KS distance under the 1 % bound."""

    @pytest.fixture(params=[1, 2006])
    def stream(self, request):
        return SeedSequenceRegistry(seed=request.param).stream("ks")

    def test_uniform(self, stream):
        draws = [stream.uniform(-1.0, 3.0) for _ in range(_N)]
        assert _ks_distance(draws, lambda x: (x + 1.0) / 4.0) < _KS_BOUND

    def test_exponential(self, stream):
        draws = [stream.exponential(2.5) for _ in range(_N)]
        assert _ks_distance(draws, lambda x: 1.0 - math.exp(-x / 2.5)) < _KS_BOUND

    def test_lognormal(self, stream):
        """At a median of 1e9 the clamp and the int truncation are far
        below the distance's resolution."""
        mu, sigma = math.log(1e9), 0.75
        draws = [stream.lognormal_size(1e9, sigma, 1, 10**12) for _ in range(_N)]
        distance = _ks_distance(draws, lambda x: _normal_cdf((math.log(x) - mu) / sigma))
        assert distance < _KS_BOUND


class TestIndependence:
    def test_named_streams_are_independent(self):
        """Two names of one registry share no draw, are uncorrelated at
        small lags, and fill the unit square evenly."""
        registry = SeedSequenceRegistry(seed=2006)
        a = [registry.stream("arrivals").uniform() for _ in range(_N)]
        b = [registry.stream("sizes").uniform() for _ in range(_N)]
        assert not set(a) & set(b)
        for lag in range(-3, 4):
            x, y = a[max(lag, 0) : _N + min(lag, 0)], b[max(-lag, 0) : _N + min(-lag, 0)]
            assert abs(statistics.correlation(x, y)) < 4 / math.sqrt(_N), lag
        cells = Counter((int(u * 10), int(v * 10)) for u, v in zip(a, b))
        expected = _N / 100
        chi2 = sum((cells[(i, j)] - expected) ** 2 / expected for i in range(10) for j in range(10))
        assert chi2 < 134.6  # the 1 % critical value at 99 degrees of freedom
