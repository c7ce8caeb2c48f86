"""Tests for repro.utils (RNG derivation)."""

import numpy as np

from repro.utils.rng import RngFactory, derive_seed, new_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_differs_by_path(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_non_negative_63_bit(self):
        for seed in range(20):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63

    def test_accepts_mixed_types(self):
        assert derive_seed(0, 1, "a", 2.5) == derive_seed(0, 1, "a", 2.5)


class TestNewRng:
    def test_same_seed_same_stream(self):
        a, b = new_rng(5), new_rng(5)
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)


class TestRngFactory:
    def test_named_streams_independent(self):
        factory = RngFactory(3)
        a = factory.make("x").integers(0, 1000, 5)
        b = factory.make("y").integers(0, 1000, 5)
        assert not np.array_equal(a, b)

    def test_named_streams_reproducible(self):
        a = RngFactory(3).make("x").integers(0, 1000, 5)
        b = RngFactory(3).make("x").integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_seed_for_matches_make(self):
        factory = RngFactory(9)
        seed = factory.seed_for("stream")
        assert np.array_equal(
            np.random.default_rng(seed).integers(0, 10, 4),
            factory.make("stream").integers(0, 10, 4),
        )
