"""Fixed-scheme pseudo-random generator for reproducible shuffles and corpora.

Deliberately not the interpreter's default generator: the exact algorithm
(splitmix64) is pinned here so that identical seeds give identical splits
and synthetic corpora on any platform, and so the scheme can be re-created
outside Python if ever needed.

splitmix64 is counter-based (Steele, Lea and Flood 2014): its k-th output
(k = 1, 2, ...) is ``mix(seed + k * GAMMA mod 2**64)``, where ``mix`` is two
xor-shift/multiply rounds and a last xor-shift.  So the stream is computed
:data:`LANES` outputs at a time, as one Python int of that many 128-bit
lanes, with about a dozen big-int operations per block instead of a dozen
int operations per draw.  Lane ``i`` holds a 64-bit value in its low half:

* a block starts from a state below 2**64 in every lane plus ``(i + 1) *
  GAMMA``, below 2**74, in lane ``i``; the sum carries into no lane, and
  ``& _LANE_MASK`` reduces every lane mod 2**64;
* a 64-bit by 64-bit product is below 2**128, so it never carries into the
  lane above, and ``& _LANE_MASK`` afterwards reduces every lane mod 2**64;
* ``z >> s`` moves the low ``s`` bits of each lane into the top of the lane
  below, above bit 64, so ``& _LANE_MASK`` after the xor removes them before
  the multiply could carry them upwards;
* the last xor-shift leaves such bits too, and the unpacking reads only the
  low 8 bytes of each 16-byte lane, in explicit little-endian order.

The integer checks of seeds, corpus sizes and loaded counts live here too:
this module imports no other routecat module, so any of them can import it.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Callable, Iterator, MutableSequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# outputs per block: 512 draw as fast as 2,048 and cost a quarter as much to set up
LANES = 512
# one 64-bit value in the low half of each 16-byte lane, lane 0 first
_LANE_LAYOUT = struct.Struct("<" + "Q8x" * LANES)
# 1 in every lane, and 2**64 - 1 in every lane
_ONES = int.from_bytes(_LANE_LAYOUT.pack(*[1] * LANES), "little")
_LANE_MASK = _MASK64 * _ONES
# k * GAMMA in lane k - 1, not yet reduced mod 2**64
_GAMMA_RAMP = _GAMMA * int.from_bytes(_LANE_LAYOUT.pack(*range(1, LANES + 1)), "little")
_BLOCK_STRIDE = LANES * _GAMMA & _MASK64


def checked_int(value: object, what: str) -> int:
    """``value`` if it is an integer (true and false, which JSON loads as bool, a subclass of int, are not)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def checked_seed(seed: object) -> int:
    """``seed`` if it is an int in 0..2**64-1 (bool, a subclass of int, is not)."""
    if type(seed) is not int:
        raise TypeError(f"seed must be an integer, not {seed!r}")
    # masking would give seeds equal modulo 2**64, such as -1 and 2**64 - 1, one stream
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in 0..2**64-1, not {seed}")
    return seed


def _blocks(state: int) -> Iterator[tuple[int, ...]]:
    """The stream after ``state``, one tuple of :data:`LANES` outputs at a time."""
    while True:
        z = (state * _ONES + _GAMMA_RAMP) & _LANE_MASK
        z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
        z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
        yield _LANE_LAYOUT.unpack((z ^ (z >> 31)).to_bytes(_LANE_LAYOUT.size, "little"))
        state = (state + _BLOCK_STRIDE) & _MASK64


class SplitMix64:
    """splitmix64: 64-bit state, golden-gamma increment, two xor-shift mixes.

    ``next_u64()`` returns the next output of the stream.
    """

    def __init__(self, seed: int) -> None:
        # a C-level call: no Python frame runs per draw, one runs per block
        self.next_u64: Callable[[], int] = chain.from_iterable(_blocks(checked_seed(seed))).__next__

    def randrange(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction (bias is negligible for n << 2**64)."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
