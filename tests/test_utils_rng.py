"""Tests for the seeded RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import (
    RngFactory,
    as_generator,
    choice_without_replacement,
    iter_seeds,
    spawn_generators,
)


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1_000_000, size=10)
        b = as_generator(7).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(3)
        assert isinstance(as_generator(seq), np.random.Generator)


class TestSpawnGenerators:
    def test_children_are_independent_and_deterministic(self):
        first = [g.integers(0, 1000, 5).tolist() for g in spawn_generators(11, 3)]
        second = [g.integers(0, 1000, 5).tolist() for g in spawn_generators(11, 3)]
        assert first == second
        assert first[0] != first[1]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestRngFactory:
    def test_fixed_stream_is_stable(self):
        factory = RngFactory(5)
        a = factory.fixed_stream("env").integers(0, 100, 4)
        b = factory.fixed_stream("env").integers(0, 100, 4)
        assert np.array_equal(a, b)

    def test_stream_advances_per_call(self):
        factory = RngFactory(5)
        a = factory.stream("agent").integers(0, 100, 4)
        b = factory.stream("agent").integers(0, 100, 4)
        assert not np.array_equal(a, b)

    def test_different_names_differ(self):
        factory = RngFactory(5)
        a = factory.fixed_stream("alpha").integers(0, 10_000, 8)
        b = factory.fixed_stream("beta").integers(0, 10_000, 8)
        assert not np.array_equal(a, b)

    def test_seeds_are_reproducible(self):
        factory = RngFactory(9)
        assert factory.seeds("maps", 4) == RngFactory(9).seeds("maps", 4)


def _reference_choice(rng, population, size):
    """The per-value python loop ``choice_without_replacement`` replaced."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if size > population // 8:
        return rng.permutation(population)[:size].astype(np.int64)
    selected = set()
    result = np.empty(size, dtype=np.int64)
    count = 0
    while count < size:
        needed = size - count
        for value in rng.integers(0, population, size=needed * 2):
            value = int(value)
            if value not in selected:
                selected.add(value)
                result[count] = value
                count += 1
                if count == size:
                    break
    return result


class _CollidingGenerator:
    """Draws candidates from only ``distinct`` values, so most of them collide."""

    def __init__(self, seed, distinct):
        self.inner = np.random.default_rng(seed)
        self.distinct = distinct
        self.calls = 0

    def integers(self, low, high, size):
        self.calls += 1
        return self.inner.integers(low, min(high, low + self.distinct), size=size)


class TestChoiceWithoutReplacement:
    @given(
        population=st.integers(min_value=1, max_value=5000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_unique_and_in_range(self, population, fraction):
        size = int(round(fraction * population))
        result = choice_without_replacement(np.random.default_rng(0), population, size)
        assert len(result) == size
        assert len(np.unique(result)) == size
        if size:
            assert result.min() >= 0 and result.max() < population

    @given(
        population=st.integers(min_value=1, max_value=4000),
        size_hint=st.sampled_from(["zero", "one", "below", "at", "above", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_loop_and_generator_state(self, population, size_hint, seed):
        threshold = population // 8
        size = {
            "zero": 0,
            "one": min(1, population),
            "below": max(threshold - 1, 0),
            "at": threshold,
            "above": min(threshold + 1, population),
            "random": seed % (threshold + 1),
        }[size_hint]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        result = choice_without_replacement(ours, population, size)
        np.testing.assert_array_equal(result, _reference_choice(theirs, population, size))
        assert result.dtype == np.int64
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("size,distinct", [(1, 1), (5, 6), (40, 41), (100, 100)])
    def test_heavy_collisions_match_reference(self, size, distinct):
        # Draws confined to ``distinct`` values collide constantly, forcing
        # many candidate batches (the values-already-selected filter).
        batches = []
        for seed in range(20):
            ours, theirs = _CollidingGenerator(seed, distinct), _CollidingGenerator(seed, distinct)
            np.testing.assert_array_equal(
                choice_without_replacement(ours, 4000, size),
                _reference_choice(theirs, 4000, size),
            )
            assert ours.calls == theirs.calls
            assert ours.inner.bit_generator.state == theirs.inner.bit_generator.state
            batches.append(ours.calls)
        assert max(batches) > (1 if size > 1 else 0)

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            choice_without_replacement(np.random.default_rng(0), 5, 6)


def test_iter_seeds_deterministic():
    assert list(iter_seeds(1, 5)) == list(iter_seeds(1, 5))
    assert len(set(iter_seeds(1, 5))) == 5
