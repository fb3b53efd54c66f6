"""Deterministic seeded randomness for all genericity draws.

Every "generic" choice in the toolkit is a uniform draw over a prime field
from a SeedStream.  Streams are built only from integer seeds and consume
only `getrandbits`, so the byte-for-byte output of a computation is a pure
function of (input, seed, prime).
"""

from __future__ import annotations

import random

from .errors import DegenerateInputError
from .fields import PrimeField


class SeedStream:
    """A deterministic stream of uniform integers derived from one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def bits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def below(self, m: int) -> int:
        """Uniform integer in [0, m), by rejection."""
        if m <= 0:
            raise ValueError("upper bound must be positive")
        k = m.bit_length()
        while True:
            v = self._rng.getrandbits(k)
            if v < m:
                return v

    def child_seed(self) -> int:
        return self.bits(63)


def random_scalar(field, stream: SeedStream):
    """Uniform field element; defined only over prime fields."""
    if not isinstance(field, PrimeField):
        raise DegenerateInputError(
            "genericity sampling is defined only over prime fields")
    return stream.below(field.modulus)


def random_vector(field, n: int, stream: SeedStream) -> list:
    return [random_scalar(field, stream) for _ in range(n)]
