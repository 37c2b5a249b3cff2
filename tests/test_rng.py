import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classim.rng import SplitMix64, derive_seed, mix64, normal_pair, splitmix64_block


def test_mix64_is_deterministic_and_64_bit():
    a = mix64(0)
    assert a == mix64(0)
    assert 0 <= a < 2**64
    assert mix64(1) != mix64(2)


def test_derive_seed_depends_on_every_part():
    base = derive_seed(1, "alpha", 2)
    assert base == derive_seed(1, "alpha", 2)
    assert base != derive_seed(1, "alpha", 3)
    assert base != derive_seed(1, "beta", 2)
    assert base != derive_seed(2, "alpha", 2)


def test_derive_seed_does_not_collide_on_concatenation():
    # "ab" + "c" must differ from "a" + "bc"
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_stream_reproducibility():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1, derive_seed(7, "permutation")])
def test_block_draws_follow_the_scalar_stream(seed):
    rng = SplitMix64(seed)
    scalar = [rng.next_u64() for _ in range(100)]
    block = splitmix64_block(seed, 37, 63)
    assert block.dtype == "uint64"
    assert [int(u) for u in block] == scalar[37:]


def test_float_range_and_spread():
    rng = SplitMix64(5)
    values = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.05


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_randrange_stays_in_bounds(n, seed):
    rng = SplitMix64(seed)
    assert 0 <= rng.randrange(n) < n


def test_randrange_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(7)
    items = list(range(100))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # 1/100! chance of a false failure


def test_sample_without_replacement_unique_and_in_range():
    rng = SplitMix64(21)
    picks = rng.sample_without_replacement(1_000_000, 300)
    assert len(picks) == len(set(picks)) == 300
    assert all(0 <= p < 1_000_000 for p in picks)
    # dense regime takes the other code path
    dense = rng.sample_without_replacement(10, 10)
    assert sorted(dense) == list(range(10))


def test_sample_without_replacement_rejects_oversize():
    with pytest.raises(ValueError):
        SplitMix64(0).sample_without_replacement(5, 6)


def test_normal_pair_moments():
    rng = SplitMix64(123)
    draws = []
    for _ in range(4000):
        draws.extend(normal_pair(rng))
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1
    assert all(math.isfinite(d) for d in draws)
