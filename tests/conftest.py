import random

import pytest

from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.parse import parse_poly
from polardeg.poly import MultiPoly
from polardeg.rand import SeedStream


@pytest.fixture(scope="session")
def Fp():
    return GF(DEFAULT_PRIME)


def qq(text: str, nvars: int = 3) -> MultiPoly:
    return parse_poly(text, nvars, QQ)


def gfp(text: str, nvars: int = 3, prime: int = DEFAULT_PRIME) -> MultiPoly:
    return parse_poly(text, nvars, GF(prime))


def random_poly(field, nvars, max_degree, n_terms, rng: random.Random) -> MultiPoly:
    """Small random polynomial with exact coefficients, possibly zero."""
    items = []
    for _ in range(n_terms):
        exp = [0] * nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exp[rng.randrange(nvars)] += 1
        items.append((tuple(exp), field.from_int(rng.randrange(-9, 10))))
    return MultiPoly.from_terms(field, nvars, items)


class ScriptedStream(SeedStream):
    """A SeedStream that counts its below() calls and answers those in
    `script`, {call number: field element}, without drawing."""

    def __init__(self, seed, script=None):
        super().__init__(seed)
        self.script, self.calls = script or {}, 0

    def below(self, m):
        k, self.calls = self.calls, self.calls + 1
        return self.script[k] if k in self.script else super().below(m)
