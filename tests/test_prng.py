"""The block-computed splitmix64 stream against the published values and the one-at-a-time recurrence.

The synthetic generator's draws are checked here too, against a plain loop
over the same one-at-a-time oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from routecat.prng import LANES, SplitMix64
from routecat.synthetic import SyntheticSpec, generate_synthetic

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


def test_randrange_reads_the_stream():
    rng = SplitMix64(7)
    draws = scalar_stream(7)
    assert rng.randrange(1000) == next(draws) % 1000
    with pytest.raises(ValueError, match="^randrange\\(\\) bound must be positive$"):
        rng.randrange(0)


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_a_seed_that_is_not_an_int_is_refused_when_built(seed):
    # 1.5 built and failed only at the first draw; True was seed 1
    with pytest.raises(TypeError, match=f"^seed must be an integer, not {seed!r}$"):
        SplitMix64(seed)


def transcribed_generator(spec: SyntheticSpec) -> tuple[str, str]:
    """generate_synthetic as a plain loop over :func:`scalar_stream`: each token's draws in order, in float form.

    A token draws u against the noise fraction as the float (u >> 11) / 2**53,
    then takes noise term u % noise_vocab_size of a second draw, or else picks
    the level of a second draw u % (2**depth - 1), walking down the leaf's chain
    from the top level with weights 1, 2, 4, ..., and term u % vocab_per_topic
    of that level's topic with a third draw.
    """
    edges: list[str] = []
    level = [("root", [])]
    for _ in range(spec.depth):
        next_level = []
        for parent, chain in level:
            for j in range(spec.branching):
                child = f"c{j}" if parent == "root" else f"{parent}.{j}"
                next_level.append((child, [*chain, [f"w{len(edges)}x{k}" for k in range(spec.vocab_per_topic)]]))
                edges.append(f"{parent}\t{child}")
        level = next_level
    draws = scalar_stream(spec.seed)
    lines = []
    for leaf, chain in level:
        for _ in range(spec.docs_per_leaf):
            tokens = []
            for _ in range(spec.tokens_per_doc):
                if (next(draws) >> 11) / 2**53 < spec.noise_fraction:
                    tokens.append(f"z{next(draws) % spec.noise_vocab_size}")
                    continue
                pick = next(draws) % (2 ** len(chain) - 1)
                for k, terms in enumerate(chain):
                    if pick < 2**k:
                        break
                    pick -= 2**k
                tokens.append(terms[next(draws) % spec.vocab_per_topic])
            lines.append(f"d{len(lines):06d}\t{leaf}\t{' '.join(tokens)}")
    return "".join(f"{edge}\n" for edge in edges), "".join(f"{line}\n" for line in lines)


@given(
    depth=st.integers(min_value=1, max_value=4),
    branching=st.integers(min_value=1, max_value=3),
    docs_per_leaf=st.integers(min_value=1, max_value=3),
    vocab_per_topic=st.integers(min_value=1, max_value=5),
    noise_vocab_size=st.integers(min_value=1, max_value=5),
    noise_fraction=st.sampled_from([0.0, 2**-53, 0.5, 0.9, 1 - 2**-53]),
    tokens_per_doc=st.integers(min_value=1, max_value=12),
    seed=st.one_of(st.integers(min_value=0, max_value=MASK64), wrapping_seeds),
)
# 9 leaves of 3 documents of 40 tokens: over 2,000 draws, so documents straddle blocks
@example(2, 3, 3, 30, 150, 0.5, 40, 0)
@example(4, 2, 2, 3, 4, 0.9, 20, MASK64)
@example(1, 3, 1, 2, 2, 2**-53, 3, (-LANES * GAMMA) & MASK64)
@example(3, 2, 1, 4, 3, 1 - 2**-53, 5, (3 - 7 * GAMMA) & MASK64)
def test_generate_synthetic_equals_the_plain_loop_over_the_scalar_stream(
    depth, branching, docs_per_leaf, vocab_per_topic, noise_vocab_size, noise_fraction, tokens_per_doc, seed
):
    spec = SyntheticSpec(depth, branching, docs_per_leaf, vocab_per_topic, noise_vocab_size, noise_fraction, tokens_per_doc, seed)
    assert generate_synthetic(spec) == transcribed_generator(spec)
