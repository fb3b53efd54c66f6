"""Coefficient fields: the rationals and large prime fields.

Rational coefficients are `fractions.Fraction`; prime-field coefficients are
plain ints reduced to [0, p).  Every randomized degree computation runs over a
prime field; the rationals are used for small exact regression anchors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError

# ~2^20 of genericity headroom; the floor admits the reference second
# prime 1000003 used by the robustness re-runs
MIN_PRIME = 1000003
MAX_PRIME = 1 << 62

# Witnesses making Miller-Rabin deterministic for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers, elements are Fraction."""

    kind = "rationals"
    modulus = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a machine-word prime p, elements are ints in [0, p)."""

    kind = "prime-field"

    def __init__(self, p: int):
        # the range first: Miller-Rabin on a huge modulus takes seconds
        if not isinstance(p, int):
            raise DegenerateInputError(f"modulus {p!r} is not an integer")
        if p < MIN_PRIME:
            raise DegenerateInputError(
                f"modulus {p} too small: need p >= {MIN_PRIME} for genericity headroom")
        if p >= MAX_PRIME:
            raise DegenerateInputError(
                f"modulus of {p.bit_length()} bits does not fit in 62 bits")
        if not is_prime(p):
            raise DegenerateInputError(f"modulus {p} is not prime")
        self.modulus = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.modulus)

    def from_int(self, n: int):
        return n % self.modulus

    def from_fraction(self, q: Fraction):
        den = q.denominator % self.modulus
        if den == 0:
            raise DegenerateInputError(
                f"bad reduction: denominator {q.denominator} divisible by the "
                f"modulus {self.modulus}")
        return q.numerator * pow(den, -1, self.modulus) % self.modulus

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("prime-field", self.modulus))

    def __repr__(self):
        return f"GF({self.modulus})"


QQ = RationalField()

DEFAULT_PRIME = 2147483647

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Cached prime-field constructor."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field
