"""Deterministic 64-bit generator for reproducible instances.

SplitMix64: state advances by the golden-gamma constant and the output is a
bijective finalizer of the state.  Chosen because it is trivially portable
across languages (the full algorithm is these ten lines; see docs/formats.md
for the normative description).  ``below(n)`` reduces by remainder; the bias
is irrelevant at desk scale and keeps the mapping obvious.
"""

MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def fork(self, label):
        """Independent stream derived from this seed and an integer label."""
        return SplitMix64(self.next_u64() ^ (label & MASK))
