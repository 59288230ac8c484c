"""Deterministic, platform-independent pseudo-random numbers.

SplitMix64 is a tiny, well-known 64-bit generator.  We use it instead of the
standard library's Mersenne Twister so that seeded test corpora are exactly
reproducible from the documented algorithm alone, in any language.

``below(n)`` reduces by modulo; the bias is < 2^-32 for every n used here.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample_ids(self, n: int, k: int) -> list[int]:
        """k distinct ids drawn from range(n), in draw order."""
        if k < 0:
            raise ValueError(f"cannot sample a negative number of ids ({k})")
        if k > n:
            raise ValueError("cannot sample more ids than available")
        pool = list(range(n))
        state = self._state
        for i in range(k):
            # inlined next_u64: this loop dominates corpus generation
            state = (state + _GAMMA) & _MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            j = i + (z ^ (z >> 31)) % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        self._state = state
        return pool[:k]
