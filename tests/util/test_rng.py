"""Tests for repro.util.rng: determinism and stream independence."""

import numpy as np
import pytest

from repro.util.rng import RngStream, SeedSequenceRegistry


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
        assert np.mean(draws) == pytest.approx(5.0, rel=0.1)

    def test_integers_inclusive(self, stream):
        values = {stream.integers(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_integers_empty_range(self, stream):
        with pytest.raises(ValueError):
            stream.integers(5, 4)

    def test_choice(self, stream):
        assert stream.choice(["a"]) == "a"
        assert stream.choice(("x", "y")) in {"x", "y"}

    def test_choice_empty(self, stream):
        with pytest.raises(ValueError):
            stream.choice([])

    def test_lognormal_size_clamped(self, stream):
        for _ in range(200):
            v = stream.lognormal_size(median=1024, sigma=2.0, lo=64, hi=4096)
            assert 64 <= v <= 4096
            assert isinstance(v, int)

    def test_lognormal_size_draws_unchanged(self):
        """The memoized log median draws what the plain expression drew."""
        stream = SeedSequenceRegistry(seed=7).stream("sizes")
        reference = SeedSequenceRegistry(seed=7).stream("sizes").generator
        medians = [64, 128.0, 128, 512, 64] * 2_000
        drawn = [stream.lognormal_size(m, 0.5, lo=1, hi=4 * 512) for m in medians]
        expected = [
            int(min(max(float(reference.lognormal(mean=np.log(m), sigma=0.5)), 1), 4 * 512))
            for m in medians
        ]
        assert drawn == expected

    def test_lognormal_size_validation(self, stream):
        with pytest.raises(ValueError):
            stream.lognormal_size(median=0, sigma=1.0, lo=1, hi=2)
        with pytest.raises(ValueError):
            stream.lognormal_size(median=10, sigma=1.0, lo=5, hi=4)

    def test_shuffle_permutes(self, stream):
        items = list(range(50))
        shuffled = items.copy()
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_generator_exposed(self, stream):
        assert isinstance(stream.generator, np.random.Generator)
