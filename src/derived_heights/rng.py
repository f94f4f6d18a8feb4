"""Portable deterministic pseudo-random stream (SplitMix64).

Fuzz campaigns must be reproducible byte-for-byte from a 64-bit seed, and
the stream must be reconstructible in any language, so the generator is
written out here instead of delegating to a platform RNG.

Algorithm (all arithmetic mod 2**64):

    state <- state + 0x9E3779B97F4A7C15
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB
    output z XOR (z >> 31)

``below(n)`` reduces an output modulo ``n``; the tiny modulo bias is
irrelevant (n is always far below 2**64) and the plain reduction keeps
the stream trivial to reproduce elsewhere.

``below_many(n, count)`` is ``count`` calls of ``below(n)`` as one block
of wrapping numpy uint64 arithmetic: draw j = 1..count from state s is the
output mix of s + j * gamma, and the state ends at s + count * gamma
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators", 2014).

Per-trial streams are addressed statelessly: trial ``i`` of seed ``s``
uses a fresh generator seeded with ``mix64(s XOR mix64(i))``.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """The SplitMix64 output mix of a single 64-bit word."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def below_many(self, n: int, count: int) -> np.ndarray:
        """``count`` successive draws of ``below(n)`` as one int64 array."""
        if n <= 0:
            raise ValueError("below_many() needs a positive bound")
        assert n < 1 << 63, "below_many() casts its draws to int64"
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return ((z ^ (z >> np.uint64(31))) % np.uint64(n)).astype(np.int64)


def trial_rng(seed: int, offset: int) -> SplitMix64:
    """Independent stream for trial ``offset`` of a campaign seed."""
    return SplitMix64(mix64((seed & _MASK) ^ mix64(offset & _MASK)))
