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

Quotient queries: a zero-dimensional basis enumerates its standard monomials
once, packed wide enough for each of them times a variable, and keeps them
for quotient_dimension and is_reduced_zero_dim.  The latter does all its
work in one elimination over those monomials: it finds the minimal
polynomial mu of a linear form ell, and writes given polys as polynomials in
ell; a univariate gcd of these with mu then counts the points where not
all the polys vanish.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import mul

from .errors import (DegenerateInputError, FieldMismatchError, PolardegError,
                     ResourceLimitError)
from .linalg import row_reduce
from .poly import MultiPoly, gcd_many

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


# one packing per (nvars, vbits), shared by every basis and query
_packing = cache(_Packing)


def _widening(nvars, degree, run, packing=None):
    """run(packing) on fields wide enough for `degree`, doubled on overflow."""
    vbits = min(max(8, (4 * degree).bit_length(), packing.vbits if packing else 0),
                _MAX_VALUE_BITS)
    while True:
        try:
            return run(_packing(nvars, vbits))
        except _Overflow:
            if vbits == _MAX_VALUE_BITS:
                raise ResourceLimitError(
                    f"a monomial reaches total degree 2^{_MAX_VALUE_BITS}, "
                    "beyond the widest packed exponent field") from None
            vbits = min(2 * vbits, _MAX_VALUE_BITS)


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

    @cached_property
    def _quotient(self) -> tuple:
        """(packing, standard monomials ascending) of a zero-dimensional ideal;
        the packing also fits every standard monomial times a variable."""
        if not is_zero_dimensional(self):
            raise DegenerateInputError("ideal is not zero-dimensional")
        return _widening(self.nvars, 0, self._standard_monomials, self.packing)

    def _standard_monomials(self, pk):
        leads, guards = [pk.pack(e) for e in self.lead_exps], pk.guards
        seen, stack, out = {0}, [0], []
        while stack:
            m = stack.pop()
            for lm in leads:
                if not (m - lm) & guards:
                    break
            else:
                out.append(m)
                if len(out) > _MAX_STANDARD:
                    raise ResourceLimitError("standard monomial enumeration exploded")
                for u in pk.units:
                    nm = m + u
                    if nm & guards:
                        raise _Overflow
                    if nm not in seen:
                        seen.add(nm)
                        stack.append(nm)
        return pk, sorted(out)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.lead_exps)

    def packed(self, pk: _Packing):
        """The basis in the engine form of packing pk."""
        if pk is self.packing:
            return self.elems
        return [(t[0][0], t[1:]) for t in map(pk.terms, self.basis)]


def _monic(terms, field):
    (lm, lc), p = terms[0], field.modulus
    inv = field.inv(lc)
    if p:
        return lm, [(m, c * inv % p) for m, c in terms[1:]]
    return lm, [(m, c * inv) for m, c in terms[1:]]


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
    units, top = pk.units, (pk.vbits + 1) * (2 * pk.nvars - 1)   # m >> top: deg m
    polys: list = []            # (lm, tail, exponents of lm, sugar - deg lm), append-only
    G: dict = {}                # the current basis: index -> monic (lm, tail)
    pairs: list = []            # heap of (sugar, lcm, i, j)

    def add(terms, sugar):
        lm, tail = _monic(terms, field)
        h, exp = len(polys), pk.unpack(lm)
        polys.append((lm, tail, exp, sugar - sum(exp)))
        # Gebauer-Moeller: drop old pairs (i, j) with lm(h) | lcm(i, j) != lcm(i, h), lcm(j, h);
        # there lcm(i, h) | lcm(i, j), so the two are equal iff their degrees are
        live = [p for p in pairs if (p[1] - lm) & guards
                or sum(map(max, polys[p[2]][2], exp)) == p[1] >> top
                or sum(map(max, polys[p[3]][2], exp)) == p[1] >> top]
        if len(live) < len(pairs):
            pairs[:] = live
            heapify(pairs)
        # new pairs by ascending lcm, coprime first among equal lcms; keep a pair
        # iff no kept lcm divides its lcm, and queue it unless it is coprime
        new = []
        for g, (lg, _) in G.items():
            m = lm + sum((a - b) * u for u, a, b in zip(units, polys[g][2], exp) if a > b)
            if m & guards:
                raise _Overflow
            new.append((m, m != lg + lm, g))
        kept = []
        for m, shared, g in sorted(new):
            if all((m - k) & guards for k in kept):
                kept.append(m)
                if shared:
                    heappush(pairs, (max(polys[g][3], polys[h][3]) + (m >> top), m, g, h))
        for g in [g for g, (lg, _) in G.items() if not (lg - lm) & guards]:
            del G[g]
        G[h] = (lm, tail)

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


def is_zero_dimensional(G: GroebnerBasis) -> bool:
    """True iff the quotient ring is a finite-dimensional vector space."""
    if G.is_unit_ideal():
        return True
    for v in range(G.nvars):
        if not any(exp[v] and all(e == 0 for i, e in enumerate(exp) if i != v)
                   for exp in G.lead_exps):
            return False
    return True


def quotient_dimension(G: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring of a zero-dimensional ideal."""
    return len(G._quotient[1])


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


# -- univariate helpers on coefficient lists over GF(p) (for the reducedness test)

def _uni_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _uni_gcd(a, b, p):
    """A gcd of two coefficient lists over GF(p), lowest degree first; its
    length is the degree plus one."""
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        # a mod b
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - c * bc) % p
            _uni_trim(a)
            if not a:
                break
        a, b = b, a
    return a


def is_reduced_zero_dim(G: GroebnerBasis, coeffs, off=()) -> int | None:
    """The number of points of a reduced zero-dimensional quotient that are
    not common zeros of the polys in `off` (every point when `off` is
    empty, 0 for the unit ideal); None when the quotient is not reduced or
    ell does not separate its points.

    coeffs are the coefficients of a linear form ell, one per variable of G,
    over the prime field (QQ is refused); callers draw them at random.  The
    test writes 1, ell, ..., ell^dim over the standard monomials, each power
    as ell's multiplication matrix (Faugere, Gianni, Lazard & Mora, JSC 1993)
    times the one before.  The quotient is reduced with ell separating its
    points iff ell's minimal polynomial has degree dim and is squarefree: iff
    1, ..., ell^(dim-1) are independent, so that sum a_k ell^k = -ell^dim
    has one solution, and mu = t^dim + sum a_k t^k is coprime to its
    derivative.  A non-separating form, the zero form among them once
    dim > 1, yields a false negative; callers redraw.

    The quotient is then F[t]/mu with t = ell, and the same elimination
    writes the normal form of each f in `off` as q_f(ell).  At a point P,
    f(P) = q_f(ell(P)), and the ell(P) are the dim distinct roots of mu; so
    the common zeros of `off` are the roots of gcd(mu, q_f for every f), and
    the count is dim minus its degree.
    """
    p = G.field.modulus
    if p is None:
        raise DegenerateInputError("the reducedness test runs over a prime field")
    if len(coeffs) != G.nvars:
        raise DegenerateInputError(
            f"a linear form on {G.nvars} variables needs {G.nvars} coefficients, "
            f"got {len(coeffs)}")
    if any(f.field != G.field or f.nvars != G.nvars for f in off):
        raise FieldMismatchError("the polys of off live in another ring than the basis")
    pk, std = G._quotient
    dim = len(std)
    if dim == 0:
        return 0
    basis, index = G.packed(pk), {m: r for r, m in enumerate(std)}
    ell = [(u, a) for u, a in zip(pk.units, coeffs) if a]
    # column c of the matrix is ell * std[c] over the standard monomials; each
    # border monomial x_v * std[c] is reduced once, and the basis is reduced,
    # so a lead's normal form is minus its tail
    cols = [[0] * dim for _ in range(dim)]
    border = {lm: [(t, -c) for t, c in tail] for lm, tail in basis}
    for col, s in zip(cols, std):
        for u, a in ell:
            m = s + u
            if m in index:
                col[index[m]] += a
                continue
            if m not in border:
                border[m] = _reduce([(m, 1)], basis, pk.guards, p)
            for t, b in border[m]:
                col[index[t]] += a * b
    matrix = [[c % p for c in row] for row in zip(*cols)]
    power = [1] + [0] * (dim - 1)   # std[0] is the monomial 1
    powers = []
    for _ in range(dim):
        powers.append(power)
        power = [sum(map(mul, row, power)) % p for row in matrix]
    forms = [[0] * dim for _ in off]
    for form, f in zip(forms, off):
        for t, c in _reduce(pk.terms(f), basis, pk.guards, p):
            form[index[t]] = c
    # columns over the standard monomials: ell^0 .. ell^(dim-1), -ell^dim,
    # then the normal forms of off
    rref, pivots = row_reduce(zip(*powers, [-c % p for c in power], *forms), G.field)
    if pivots != list(range(dim)):
        return None
    mu = [row[dim] for row in rref] + [1]
    if len(_uni_gcd(mu, [c * k % p for k, c in enumerate(mu)][1:], p)) != 1:
        return None
    if not off:
        return dim
    common = mu
    for k in range(len(off)):
        common = _uni_gcd(common, [row[dim + 1 + k] for row in rref], p)
        if len(common) == 1:
            break
    return dim + 1 - len(common)
