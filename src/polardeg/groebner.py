"""Groebner bases and the ideal-theoretic queries built on them.

Every basis is a reduced degrevlex basis, computed by Buchberger's algorithm
with the Gebauer-Moeller pair update (JSC 1988) and sugar selection (Giovini
et al., ISSAC 1991).  Two caps turn a runaway computation into a
ResourceLimitError instead of a hang: the number of S-pairs reduced,
POLARDEG_MAX_PAIRS when that environment variable is set and
DEFAULT_MAX_PAIRS otherwise, read by every basis computation; and the number
of elements built, DEFAULT_MAX_BASIS.

Inside the engine a monomial is one int, a packed exponent vector (Monagan &
Pearce, CASC 2007): 2n equal-width fields, most significant first, holding
the degrevlex key (deg, e0+...+e{n-2}, ..., e0) and then the exponents
e0 .. e{n-1}.  Every field is linear in the exponents, so the order is int
comparison and a product is int addition.  The top bit of each field is a
guard bit that a valid monomial leaves clear: two valid fields sum below
twice the guard, so a product never carries into the next field, and m
divides t iff (t - m) & guards == 0, since a field with t < m borrows into
its guard bit.

Overflow rule: each field is at most the total degree, so widths are sized
from the input degree.  A monomial that does not fit (an input or lcm of too
high degree, a product with a guard bit set) restarts the computation with
fields twice as wide, and past _MAX_VALUE_BITS raises ResourceLimitError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import (DegenerateInputError, FieldMismatchError, PolardegError,
                     ResourceLimitError)
from .linalg import row_reduce
from .poly import MultiPoly, gcd_many
from .rand import SeedStream, random_vector

DEFAULT_MAX_PAIRS = 200000
DEFAULT_MAX_BASIS = 5000
# widest field value (guard bit excluded) before a monomial is refused
_MAX_VALUE_BITS = 64
# most standard monomials a quotient query enumerates
_MAX_STANDARD = 1 << 22


class _Overflow(Exception):
    """A packed monomial outgrew its field width."""


class _Packing:
    """Packs the monomials of one ring into ints (module docstring)."""

    __slots__ = ("nvars", "vbits", "guards", "units")

    def __init__(self, nvars: int, vbits: int):
        self.nvars, self.vbits = nvars, vbits
        width = vbits + 1
        self.guards = sum(1 << (width * f + vbits) for f in range(2 * nvars))
        self.units = []
        for v in range(nvars):
            fields = ([int(k >= v) for k in reversed(range(nvars))]
                      + [int(j == v) for j in range(nvars)])
            m = 0
            for f in fields:
                m = m << width | f
            self.units.append(m)

    def pack(self, exp) -> int:
        if sum(exp) >> self.vbits:
            raise _Overflow
        return sum(e * u for e, u in zip(exp, self.units))

    def unpack(self, m: int) -> tuple:
        width, mask = self.vbits + 1, (1 << self.vbits) - 1
        return tuple(m >> (width * (self.nvars - 1 - v)) & mask for v in range(self.nvars))

    def terms(self, p: MultiPoly) -> list:
        """p's terms as (packed monomial, coefficient), descending."""
        return sorted(((self.pack(e), c) for e, c in p.terms.items()), reverse=True)

    def poly(self, terms, field) -> MultiPoly:
        return MultiPoly(field, self.nvars, {self.unpack(m): c for m, c in terms})


def _widening(nvars, degree, run, packing=None):
    """run(packing) on fields wide enough for `degree`, doubled on overflow."""
    vbits = min(max(8, (4 * degree).bit_length(), packing.vbits if packing else 0),
                _MAX_VALUE_BITS)
    pk = packing if packing is not None and packing.vbits == vbits else None
    while True:
        try:
            return run(pk or _Packing(nvars, vbits))
        except _Overflow:
            if vbits == _MAX_VALUE_BITS:
                raise ResourceLimitError(
                    f"a monomial reaches total degree 2^{_MAX_VALUE_BITS}, "
                    "beyond the widest packed exponent field") from None
            pk, vbits = None, min(2 * vbits, _MAX_VALUE_BITS)


@dataclass(frozen=True)
class GroebnerBasis:
    field: object
    nvars: int
    lead_exps: tuple
    packing: _Packing = dc_field(compare=False, repr=False)
    # monic (leading monomial, tail terms) pairs, packed by `packing`
    elems: tuple = dc_field(repr=False)

    @cached_property
    def basis(self) -> tuple:
        """The elements as monic MultiPolys, ascending by leading monomial."""
        one = self.field.one()
        return tuple(self.packing.poly([(lm, one), *tail], self.field)
                     for lm, tail in self.elems)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.lead_exps)

    def packed(self, pk: _Packing):
        """The basis in the engine form of packing pk."""
        if pk is self.packing:
            return self.elems
        return [(t[0][0], t[1:]) for t in map(pk.terms, self.basis)]


def _monic(terms, field):
    inv = field.inv(terms[0][1])
    mul = field.mul
    return terms[0][0], [(m, mul(c, inv)) for m, c in terms[1:]]


def _reduce(items, basis, guards, prime):
    """Fully reduced remainder of sum(items) by monic (lm, tail) pairs.

    Coefficients accumulate unreduced in a dict, with a max-heap of the
    packed monomials (stored negated); over GF(p) they are reduced once, when
    their monomial is popped.  Every step cancels the largest remaining
    monomial and adds only smaller ones, so each monomial is popped once.
    Returns the remainder's terms in descending order.
    """
    acc: dict = {}
    heap: list = []
    for m, c in items:
        cur = acc.get(m)
        if cur is None:
            acc[m] = c
            heap.append(-m)
        else:
            acc[m] = cur + c
    heapify(heap)
    push, pop = heappush, heappop
    out = []
    while heap:
        m = -pop(heap)
        c = acc.pop(m)
        if m & guards:
            raise _Overflow
        if prime:
            c %= prime
        if not c:
            continue
        for lm, tail in basis:
            if not (m - lm) & guards:
                break
        else:
            out.append((m, c))
            continue
        shift = m - lm
        c = -c
        for tm, tc in tail:
            nm = tm + shift
            cur = acc.get(nm)
            if cur is None:
                acc[nm] = c * tc
                push(heap, -nm)
            else:
                acc[nm] = cur + c * tc
    return out


def _max_pairs() -> int:
    """The S-pair cap: POLARDEG_MAX_PAIRS when set, else DEFAULT_MAX_PAIRS."""
    raw = os.environ.get("POLARDEG_MAX_PAIRS")
    if not raw:
        return DEFAULT_MAX_PAIRS
    if not raw.isdecimal() or int(raw) < 1:
        raise PolardegError(f"POLARDEG_MAX_PAIRS must be a positive integer, got {raw!r}")
    return int(raw)


def _buchberger(gens, pk, field):
    guards, prime, max_pairs = pk.guards, field.modulus, _max_pairs()
    polys: list = []            # (lm, tail, exponents of lm, sugar - deg lm), append-only
    G: dict = {}                # the current basis: index -> monic (lm, tail)
    pairs: list = []            # heap of (sugar, lcm, i, j)

    def lcm_with(i, exp):
        return pk.pack(tuple(map(max, polys[i][2], exp)))

    def add(terms, sugar):
        nonlocal G
        lm, tail = _monic(terms, field)
        h, exp = len(polys), pk.unpack(lm)
        polys.append((lm, tail, exp, sugar - sum(exp)))
        # Gebauer-Moeller: drop old pairs (i, j) with lm(h) | lcm(i, j) != lcm(i, h), lcm(j, h)
        pairs[:] = [p for p in pairs if (p[1] - lm) & guards
                    or lcm_with(p[2], exp) == p[1] or lcm_with(p[3], exp) == p[1]]
        heapify(pairs)
        # new pairs by ascending lcm, coprime first among equal lcms; keep a pair
        # iff no kept lcm divides its lcm, and queue it unless it is coprime
        new = []
        for g, (lg, _) in G.items():
            m = lcm_with(g, exp)
            new.append((m, m != lg + lm, g))
        kept: list = []
        for m, shared, g in sorted(new):
            if all((m - k) & guards for k in kept):
                kept.append(m)
                if shared:
                    s = max(polys[g][3], polys[h][3]) + sum(map(max, polys[g][2], exp))
                    heappush(pairs, (s, m, g, h))
        G = {g: e for g, e in G.items() if (e[0] - lm) & guards} | {h: (lm, tail)}

    for terms in gens:          # sugar: the total degree, which is the lead's
        add(terms, sum(pk.unpack(terms[0][0])))

    processed = 0
    while pairs:
        sugar, lcm, i, j = heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise ResourceLimitError(f"S-pair cap exceeded ({max_pairs}); "
                                     "raise POLARDEG_MAX_PAIRS to continue")
        (li, ti, *_), (lj, tj, *_) = polys[i], polys[j]
        si, sj = lcm - li, lcm - lj
        # the leading terms cancel; the S-polynomial is the tails' difference
        r = _reduce([(m + si, c) for m, c in ti] + [(m + sj, -c) for m, c in tj],
                    G.values(), guards, prime)
        if r:
            add(r, sugar)
            if len(polys) > DEFAULT_MAX_BASIS:
                raise ResourceLimitError(f"basis size cap exceeded ({DEFAULT_MAX_BASIS})")

    # minimalize: drop elements whose lead is divisible by another lead
    kept: list = []
    for lm, tail in sorted(G.values(), key=lambda e: e[0]):
        if all((lm - k) & guards for k, _ in kept):
            kept.append((lm, tail))
    # tail-reduce each element against the others
    return [(lm, _reduce(tail, kept[:pos] + kept[pos + 1:], guards, prime))
            for pos, (lm, tail) in enumerate(kept)]


def groebner(polys) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the ideal the polys generate.

    Zero generators are dropped; deterministic for fixed input.  Raises
    DegenerateInputError when every generator is zero, FieldMismatchError
    when they live in different rings, and ResourceLimitError past
    POLARDEG_MAX_PAIRS reduced S-pairs (DEFAULT_MAX_PAIRS when unset) or
    DEFAULT_MAX_BASIS elements built.
    """
    gens = [g for g in polys if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("ideal needs at least one nonzero generator")
    field, nvars = gens[0].field, gens[0].nvars
    if any(g.field != field or g.nvars != nvars for g in gens):
        raise FieldMismatchError("generators live in different rings")

    def run(pk):
        return pk, _buchberger([pk.terms(g) for g in gens], pk, field)

    pk, elems = _widening(nvars, max(g.total_degree() for g in gens), run)
    return GroebnerBasis(field, nvars, tuple(pk.unpack(lm) for lm, _ in elems), pk,
                         tuple(elems))


def normal_form(p: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """The unique remainder of p modulo G; zero iff p lies in the ideal."""
    if p.field != G.field or p.nvars != G.nvars:
        raise FieldMismatchError("polynomial and basis live in different rings")

    def run(pk):
        return pk, _reduce(pk.terms(p), G.packed(pk), pk.guards, G.field.modulus)

    pk, r = _widening(G.nvars, max(p.total_degree(), 0), run, G.packing)
    return pk.poly(r, G.field)


def is_zero_dimensional(G: GroebnerBasis) -> bool:
    """True iff the quotient ring is a finite-dimensional vector space."""
    if G.is_unit_ideal():
        return True
    for v in range(G.nvars):
        if not any(exp[v] and all(e == 0 for i, e in enumerate(exp) if i != v)
                   for exp in G.lead_exps):
            return False
    return True


def _standard_monomials(lead_exps, nvars):
    if any(not any(e) for e in lead_exps):
        return []
    start = (0,) * nvars
    seen = {start}
    queue = [start]
    out = []
    while queue:
        m = queue.pop()
        reducible = False
        for lm in lead_exps:
            for a, b in zip(lm, m):
                if a > b:
                    break
            else:
                reducible = True
                break
        if reducible:
            continue
        out.append(m)
        if len(out) > _MAX_STANDARD:
            raise ResourceLimitError("standard monomial enumeration exploded")
        for v in range(nvars):
            nm = m[:v] + (m[v] + 1,) + m[v + 1:]
            if nm not in seen:
                seen.add(nm)
                queue.append(nm)
    return out


def quotient_dimension(G: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring of a zero-dimensional ideal."""
    if not is_zero_dimensional(G):
        raise DegenerateInputError("ideal is not zero-dimensional")
    return len(_standard_monomials(G.lead_exps, G.nvars))


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the quotient; -1 for the unit ideal.

    Computed combinatorially as the largest variable subset containing the
    support of no leading monomial.
    """
    if G.is_unit_ideal():
        return -1
    supports = [{i for i, e in enumerate(exp) if e} for exp in G.lead_exps]
    for size in range(G.nvars, 0, -1):
        for subset in map(set, combinations(range(G.nvars), size)):
            if not any(s <= subset for s in supports):
                return size
    return 0


def common_factor(polys) -> MultiPoly:
    """gcd_many(polys), with a Groebner basis deciding whether it is constant.

    Over an algebraic closure the common zero set has a hypersurface
    component iff the polys share a nonconstant factor, and a gcd does not
    change under field extension.  So an ideal of dimension at most nvars - 2
    has gcd 1, and only the other case runs the subresultant gcd.
    """
    G = groebner(polys)
    if ideal_dimension(G) <= G.nvars - 2:
        return MultiPoly.one(G.field, G.nvars)
    return gcd_many(polys)


# -- univariate helpers on coefficient lists (for the reducedness test) ------

def _uni_trim(a, zero):
    while a and a[-1] == zero:
        a.pop()
    return a


def _uni_gcd_is_unit(mu, field) -> bool:
    """True iff gcd(mu, mu') is constant, i.e. mu is squarefree."""
    zero = field.zero()
    a = list(mu)
    b = [field.mul(c, field.from_int(i)) for i, c in enumerate(mu)][1:]
    _uni_trim(a, zero)
    _uni_trim(b, zero)
    while b:
        # a mod b
        inv = field.inv(b[-1])
        while len(a) >= len(b):
            c = field.mul(a[-1], inv)
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = field.sub(a[off + i], field.mul(c, bc))
            _uni_trim(a, zero)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def is_reduced_zero_dim(G: GroebnerBasis, stream: SeedStream) -> bool:
    """Whether the zero-dimensional quotient is reduced with separated points.

    Draws a random linear form ell over the prime field (QQ is refused) and
    writes the normal forms of 1, ell, ..., ell^dim over the standard
    monomials.  The quotient is reduced with ell separating its points iff
    ell's minimal polynomial has degree dim and is squarefree: iff 1, ...,
    ell^(dim-1) are independent, so that sum a_k ell^k = -ell^dim has one
    solution, and t^dim + sum a_k t^k is coprime to its derivative.  A
    non-separating form yields a false negative; callers retry.
    """
    field = G.field
    if not is_zero_dimensional(G):
        raise DegenerateInputError("ideal is not zero-dimensional")
    std = _standard_monomials(G.lead_exps, G.nvars)
    dim = len(std)
    if dim == 0:
        return True
    zero, one = field.zero(), field.one()
    while True:
        coeffs = random_vector(field, G.nvars, stream)
        if any(c != zero for c in coeffs):
            break
    ell = [(v, c) for v, c in enumerate(coeffs) if c != zero]

    def matrix(pk):
        """Columns ell^0 .. ell^(dim-1), then -ell^dim, over the standard monomials."""
        index = {pk.pack(m): i for i, m in enumerate(std)}
        basis, units = G.packed(pk), pk.units
        rows = [[zero] * (dim + 1) for _ in range(dim)]
        power = [(0, one)]          # ell^k in normal form, packed
        for k in range(dim):
            for m, c in power:
                rows[index[m]][k] = c
            # ell * power as one shifted copy of power per variable of ell
            power = _reduce([(m + units[v], c * a) for v, a in ell for m, c in power],
                            basis, pk.guards, field.modulus)
        for m, c in power:
            rows[index[m]][dim] = field.neg(c)
        return rows

    # passed on as a temporary, the matrix is freed as row_reduce replaces it
    rref, pivots = row_reduce(_widening(G.nvars, max(map(sum, std)) + 1, matrix, G.packing),
                              field)
    if pivots != list(range(dim)):
        return False
    return _uni_gcd_is_unit([row[dim] for row in rref] + [one], field)
