"""Unit tests for repro.random.rng."""

import numpy as np
import pytest

from repro.config import DEFAULT_RNG_SEED
from repro.random import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_int_seed_is_reproducible(self):
        a = ensure_rng(42).normal(size=10)
        b = ensure_rng(42).normal(size=10)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).normal(size=10)
        b = ensure_rng(2).normal(size=10)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert ensure_rng(gen) is gen

    def test_none_uses_package_default_seed(self):
        a = ensure_rng(None).normal(size=5)
        b = ensure_rng(DEFAULT_RNG_SEED).normal(size=5)
        assert np.allclose(a, b)

    def test_invalid_seed_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")  # type: ignore[arg-type]

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_raises(self, seed):
        with pytest.raises(TypeError, match="bool"):
            ensure_rng(seed)


class TestSpawnRngs:
    def test_returns_requested_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_are_independent_streams(self):
        children = spawn_rngs(0, 2)
        a = children[0].normal(size=100)
        b = children[1].normal(size=100)
        assert not np.allclose(a, b)

    def test_reproducible_from_same_seed(self):
        first = [g.normal(size=4) for g in spawn_rngs(3, 3)]
        second = [g.normal(size=4) for g in spawn_rngs(3, 3)]
        for a, b in zip(first, second):
            assert np.allclose(a, b)

    def test_spawning_from_generator(self):
        parent = np.random.default_rng(5)
        children = spawn_rngs(parent, 2)
        assert len(children) == 2

    def test_zero_children_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

    @pytest.mark.parametrize("seed", [True, False, 1.5, np.float64(1.5), "7"])
    def test_refuses_what_ensure_rng_refuses(self, seed):
        # int() would truncate these to a seed (True seeds as 1, 1.5 as 1).
        with pytest.raises(TypeError, match=type(seed).__name__):
            ensure_rng(seed)
        with pytest.raises(TypeError, match=type(seed).__name__):
            spawn_rngs(seed, 2)

