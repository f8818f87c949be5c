"""Fixed-scheme pseudo-random generator for reproducible shuffles and corpora.

Deliberately not the interpreter's default generator: the exact algorithm
(splitmix64) is pinned here so that identical seeds give identical splits
and synthetic corpora on any platform, and so the scheme can be re-created
outside Python if ever needed.
"""

from __future__ import annotations

from typing import MutableSequence

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, golden-gamma increment, two xor-shift mixes."""

    def __init__(self, seed: int) -> None:
        # masking would give seeds equal modulo 2**64, such as -1 and 2**64 - 1, one stream
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must lie in 0..2**64-1, not {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction (bias is negligible for n << 2**64)."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        return self.next_u64() % n

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
