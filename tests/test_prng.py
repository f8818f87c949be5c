"""The block-computed splitmix64 stream against the published values and the one-at-a-time recurrence."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from routecat.prng import LANES, SplitMix64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def scalar_stream(seed: int):
    """splitmix64 one draw at a time, as Steele, Lea and Flood give it: the oracle for the block stream."""
    state = seed
    while True:
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def scalar_shuffle(items: list, seed: int) -> list:
    """Fisher-Yates from the last index down, each swap partner the next scalar draw modulo i + 1."""
    items = list(items)
    draws = scalar_stream(seed)
    for i in range(len(items) - 1, 0, -1):
        j = next(draws) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_seed_zero_gives_the_published_values():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


# seeds whose state seed + k * GAMMA lands within 3 of 0 mod 2**64 at some draw k of the first block
wrapping_seeds = st.builds(
    lambda k, d: (d - k * GAMMA) & MASK64, st.integers(min_value=1, max_value=LANES), st.integers(min_value=-3, max_value=3)
)


@given(st.one_of(st.integers(min_value=0, max_value=MASK64), wrapping_seeds))
@example(0)
@example(MASK64)
@example((-LANES * GAMMA) & MASK64)
def test_block_stream_equals_the_scalar_recurrence(seed):
    rng = SplitMix64(seed)
    draws = scalar_stream(seed)
    # three whole blocks and the start of a fourth
    for _ in range(3 * LANES + 5):
        assert rng.next_u64() == next(draws)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=LANES + 40))
@example(MASK64, LANES + 2)
def test_shuffle_is_scalar_fisher_yates(seed, n):
    items = list(range(n))
    SplitMix64(seed).shuffle(items)
    assert items == scalar_shuffle(list(range(n)), seed)


def test_random_and_randrange_read_the_stream():
    rng = SplitMix64(7)
    draws = scalar_stream(7)
    assert rng.random() == (next(draws) >> 11) / 2**53
    assert rng.randrange(1000) == next(draws) % 1000
    with pytest.raises(ValueError, match="^randrange\\(\\) bound must be positive$"):
        rng.randrange(0)


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_a_seed_that_is_not_an_int_is_refused_when_built(seed):
    # 1.5 built and failed only at the first draw; True was seed 1
    with pytest.raises(TypeError, match=f"^seed must be an integer, not {seed!r}$"):
        SplitMix64(seed)
