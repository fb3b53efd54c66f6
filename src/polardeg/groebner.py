"""Groebner bases and the ideal-theoretic queries built on them.

Every basis is a reduced degrevlex basis, computed by Buchberger's algorithm
with the Gebauer-Moeller pair update (JSC 1988) and sugar selection (Giovini
et al., ISSAC 1991).  Over GF(p) the pairs of the lowest sugar are reduced
together, as in F4 (Faugere, JPAA 1999), on packed vectors (linalg) with one
slot of slot_width(p, comb(2^vbits + n, n) + 2) bits per pair (_reduce);
the remainders get distinct leads before they join the basis, and the final
tail reduction is one more batch.  Over QQ, where Fractions do not pack, a
batch is one pair.  Three caps turn a runaway computation into a
ResourceLimitError instead of a hang: the number of S-pairs reduced, a
whole batch counted before it is reduced, POLARDEG_MAX_PAIRS when that
environment variable is set and DEFAULT_MAX_PAIRS otherwise, read by every
basis computation; the number of elements built, DEFAULT_MAX_BASIS; and the
dimension of a zero-dimensional quotient, MAX_QUOTIENT.

Inside the engine a monomial is one int, a packed exponent vector (Monagan &
Pearce, CASC 2007): 2n equal-width fields, most significant first, holding
the degrevlex key (deg, e0+...+e{n-2}, ..., e0) and then the exponents
e0 .. e{n-1}.  Every field is linear in the exponents, so the order is int
comparison and a product is int addition.  The top bit of each field is a
guard bit that a valid monomial leaves clear: two valid fields sum below
twice the guard, so a product never carries into the next field, and m
divides t iff (t - m) & guards == 0, since a field with t < m borrows into
its guard bit.

Generators come as polys or as coefficient rows over fixed polys, each row
the combination it weights: polar's fiber systems of drawn linear data.
Each poly is packed once and each combination summed on packed monomials.

Overflow rule: each field is at most the total degree, so widths are sized
from the degree of the input polys.  Inputs, S-pair lcms and standard
monomials times a variable are checked where they are formed (reductions
need no check, see _reduce); one that does not fit restarts the computation
with fields twice as wide, and past _MAX_VALUE_BITS raises ResourceLimitError.

Quotient queries: groebner enumerates the standard monomials of a
zero-dimensional basis in its packing, at most MAX_QUOTIENT of them, and
keeps them and the packed polys, its span, for quotient_dimension and
is_reduced_zero_dim.  The latter walks the border for normal forms, packed
vectors (linalg) over those monomials, and reduces a linear form's powers as
they are made; the first dependent one gives its minimal polynomial.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache, cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, prod

from .errors import (DegenerateInputError, FieldMismatchError, PolardegError,
                     ResourceLimitError)
from .fields import DEFAULT_PRIME
from .linalg import pack, slot_width, unpack
from .poly import MultiPoly, gcd_many
from .rand import SeedStream

DEFAULT_MAX_PAIRS = 200000
DEFAULT_MAX_BASIS = 5000
# most standard monomials a zero-dimensional basis has; a reducedness test there takes seconds
MAX_QUOTIENT = 1024
# widest field value (guard bit excluded) before a monomial is refused
_MAX_VALUE_BITS = 64


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
        """p's terms as (packed monomial, coefficient)."""
        return [(self.pack(e), c) for e, c in p.terms.items()]


# one packing per (nvars, vbits), shared by every basis and query
_packing = cache(_Packing)


class GroebnerBasis(namedtuple(
        "GroebnerBasis", "field nvars lead_exps elems packing standard span")):
    """A reduced basis and what groebner keeps for the quotient queries.

    elems are the monic (leading monomial, tail terms) pairs; standard the
    standard monomials ascending, None unless the ideal is zero-dimensional;
    both packed by packing, which fits each standard monomial times a
    variable.  span holds the packed terms of the polys that the generators
    combine.  Bases compare by their first four fields and hash by the
    first three, as elems holds lists.
    """

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    @cached_property
    def basis(self) -> tuple:
        """The elements as monic MultiPolys, ascending by leading monomial."""
        one, unpack = self.field.one(), self.packing.unpack
        return tuple(MultiPoly(self.field, self.nvars,
                               {unpack(m): c for m, c in [(lm, one), *tail]})
                     for lm, tail in self.elems)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.lead_exps)


def _standard_monomials(elems, pk) -> tuple:
    """The standard monomials of a zero-dimensional basis, ascending.

    Raises _Overflow when one of them times a variable leaves pk, and
    ResourceLimitError past MAX_QUOTIENT of them.
    """
    leads, guards = [lm for lm, _ in elems], pk.guards
    seen, stack, out = {0}, [0], []
    while stack:
        m = stack.pop()
        for lm in leads:
            if not (m - lm) & guards:
                break
        else:
            out.append(m)
            if len(out) > MAX_QUOTIENT:
                raise ResourceLimitError(
                    f"quotient cap exceeded ({MAX_QUOTIENT} standard monomials)")
            for u in pk.units:
                nm = m + u
                if nm & guards:
                    raise _Overflow
                if nm not in seen:
                    seen.add(nm)
                    stack.append(nm)
    return tuple(sorted(out))


def _monic(terms, field):
    (lm, lc), p = terms[0], field.modulus
    inv = field.inv(lc)
    if p:
        return lm, [(m, c * inv % p) for m, c in terms[1:]]
    return lm, [(m, c * inv) for m, c in terms[1:]]


def _reduce(rows, basis, pk, prime):
    """Fully reduced remainders of the rows of terms, each summed, by monic
    (lm, tail) pairs: one per row, in descending order.

    Rows are reduced together on packed vectors (linalg), row r's coefficient
    in slot r, so a reducer multiple is expanded once for all rows, one big-int
    multiply-add per term; over QQ, where Fractions do not pack, callers pass
    one row.  Vectors accumulate unreduced in a dict, with a max-heap of the
    packed monomials (negated); a step cancels the largest and adds only
    smaller ones, so each monomial is popped once.  Over GF(p) a vector is made
    canonical, each slot mod p (one slot: v % p), before it multiplies, and a
    remainder's slots as it is split.  A slot starts below 2p (a row has at
    most two terms per monomial); a step adds (p - c) * tc < p^2, and fewer
    than comb(2^vbits + n, n) steps run, one per monomial of n variables and
    degree below 2^vbits.  No step overflows: monomials handed in fit (inputs,
    S-pair terms under a checked lcm, tails), and new terms tm + (m - lm) have
    deg tm <= deg lm, so no field passes deg m.
    """
    guards, n, width, neg = pk.guards, len(rows), 0, prime or 0
    if n > 1:
        width = slot_width(prime, comb((1 << pk.vbits) + pk.nvars, pk.nvars) + 2)
        neg = prime * ((1 << width * n) - 1) // ((1 << width) - 1)     # p in every slot
    acc, heap = {}, []
    for r, row in enumerate(rows):
        unit = 1 << width * r
        for m, c in row:
            cur = acc.get(m)
            if cur is None:
                acc[m] = c * unit
                heap.append(-m)
            else:
                acc[m] = cur + c * unit
    heapify(heap)
    push, pop, mask = heappush, heappop, (1 << width) - 1
    out = []
    while heap:
        m = -pop(heap)
        v = acc.pop(m)
        if n == 1 and prime:
            v %= prime
        if not v:
            continue
        for lm, tail in basis:
            if not (m - lm) & guards:
                break
        else:
            out.append((m, v))
            continue
        if n > 1:
            c = 0
            for s in range(width * (n - 1), -1, -width):
                c = c << width | (v >> s & mask) % prime
            if not c:
                continue
            v = c
        shift, f = m - lm, neg - v
        for tm, tc in tail:
            nm = tm + shift
            cur = acc.get(nm)
            if cur is None:
                acc[nm] = f * tc
                push(heap, -nm)
            else:
                acc[nm] = cur + f * tc
    return [[(m, c) for m, v in out if (c := (v >> s & mask) % prime)]
            for s in range(0, width * n, width)] if n > 1 else [out]


def _distinct_leads(rows, prime):
    """The nonzero rows with distinct leads and the same span over GF(p): a
    row whose lead is a kept row's loses a multiple of it until it is not."""
    kept: dict = {}             # lead -> row
    for row in rows:
        while row and (lm := row[0][0]) in kept:
            other, acc = kept[lm], dict(row)
            f = row[0][1] * pow(other[0][1], -1, prime) % prime
            for m, c in other:
                acc[m] = (acc.get(m, 0) - f * c) % prime
            row = sorted(((m, c) for m, c in acc.items() if c), reverse=True)
        if row:
            kept[lm] = row
    return list(kept.values())


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

    processed, neg = 0, prime or 0
    while pairs:
        # every pair of the lowest sugar, reduced together; over QQ one pair
        batch = [heappop(pairs)]
        while prime and pairs and pairs[0][0] == batch[0][0]:
            batch.append(heappop(pairs))
        processed += len(batch)
        if processed > max_pairs:
            raise ResourceLimitError(f"S-pair cap exceeded ({max_pairs}); "
                                     "raise POLARDEG_MAX_PAIRS to continue")
        rows = []
        for _, lcm, i, j in batch:
            (li, ti, *_), (lj, tj, *_) = polys[i], polys[j]
            si, sj = lcm - li, lcm - lj
            # the leads cancel: the S-polynomial is the tails' difference, -c as p - c >= 0
            rows.append([(m + si, c) for m, c in ti] + [(m + sj, neg - c) for m, c in tj])
        for r in _distinct_leads(_reduce(rows, G.values(), pk, prime), prime):
            add(r, batch[0][0])
            if len(polys) > DEFAULT_MAX_BASIS:
                raise ResourceLimitError(f"basis size cap exceeded ({DEFAULT_MAX_BASIS})")

    # minimalize: drop elements whose lead is divisible by another lead
    kept: list = []
    for lm, tail in sorted(G.values(), key=lambda e: e[0]):
        if all((lm - k) & guards for k, _ in kept):
            kept.append((lm, tail))
    # tail-reduce each element by all of kept, its own lead dividing none of its tail
    tails = [tail for _, tail in kept]
    batches = [tails] if prime else [[tail] for tail in tails]
    reduced = [r for batch in batches for r in _reduce(batch, kept, pk, prime)]
    return [(lm, r) for (lm, _), r in zip(kept, reduced)]


def _generators(polys) -> list:
    """The nonzero polys; refused when there are none or their rings differ."""
    gens = [g for g in polys if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("ideal needs at least one nonzero generator")
    if any(g.field != gens[0].field or g.nvars != gens[0].nvars for g in gens):
        raise FieldMismatchError("generators live in different rings")
    return gens


def _combination(row, packed, prime) -> list:
    """sum row[j] * packed[j] over packed terms, descending; [] when it is zero."""
    acc: dict = {}
    for a, terms in zip(row, packed):
        if a:
            for m, c in terms:
                acc[m] = acc.get(m, 0) + a * c
    return sorted(((m, r) for m, c in acc.items() if (r := c % prime if prime else c)),
                  reverse=True)


def groebner(polys, rows=None) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the ideal the polys generate or,
    given coefficient rows, of the combinations sum_j row[j] * polys[j], one
    per row, a short row padded with zeros (module docstring).

    Zero generators and zero combinations are dropped; deterministic for
    fixed input.  Raises DegenerateInputError when every generator is zero
    or a row is longer than polys, FieldMismatchError when the polys live in
    different rings, and ResourceLimitError past POLARDEG_MAX_PAIRS reduced
    S-pairs (DEFAULT_MAX_PAIRS when unset), DEFAULT_MAX_BASIS elements built
    or MAX_QUOTIENT standard monomials.
    """
    polys = tuple(polys)
    gens = _generators(polys)
    field, nvars = gens[0].field, gens[0].nvars
    if rows is None:            # each nonzero poly on its own
        polys, rows = gens, [[0] * k + [1] for k in range(len(gens))]
    if any(len(row) > len(polys) for row in rows):
        raise DegenerateInputError(f"a row has more coefficients than the {len(polys)} polys")

    vbits = min(max(8, (4 * max(p.total_degree() for p in polys)).bit_length()),
                _MAX_VALUE_BITS)
    while True:
        pk = _packing(nvars, vbits)
        try:
            packed = [pk.terms(p) for p in polys]
            combos = [t for row in rows if (t := _combination(row, packed, field.modulus))]
            if not combos:
                raise DegenerateInputError("ideal needs at least one nonzero generator")
            elems = tuple(_buchberger(combos, pk, field))
            leads = tuple(pk.unpack(lm) for lm, _ in elems)
            # zero-dimensional iff each variable has a power among the leads
            # (the unit ideal's lead 1 is the 0th power of each)
            finite = all(any(e[v] == sum(e) for e in leads) for v in range(nvars))
            standard = _standard_monomials(elems, pk) if finite else None
            return GroebnerBasis(field, nvars, leads, elems, pk, standard, tuple(packed))
        except _Overflow:
            if vbits == _MAX_VALUE_BITS:
                raise ResourceLimitError(
                    f"a monomial reaches total degree 2^{_MAX_VALUE_BITS}, "
                    "beyond the widest packed exponent field") from None
            vbits = min(2 * vbits, _MAX_VALUE_BITS)


def quotient_dimension(G: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring of a zero-dimensional ideal."""
    if G.standard is None:
        raise DegenerateInputError("ideal is not zero-dimensional")
    return len(G.standard)


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
    """gcd_many(polys), run only when one line does not prove the gcd is 1.

    Every nonzero f is restricted to a fixed line P + sQ over GF(p), p the
    field's modulus or 2^31-1 over QQ.  If g of degree >= 1 divides every f,
    g(P+sQ) divides every f(P+sQ); where f(P+sQ) keeps deg f, its top
    coefficient f_top(Q) = g_top(Q) * h_top(Q) is nonzero, so g(P+sQ) keeps
    deg g.  A constant gcd of the restrictions, one of them of full degree,
    thus proves the polys coprime.  Over QQ, g scaled primitive over Z_(p)
    divides every f there by Gauss's lemma, so the argument runs mod p.
    Otherwise, or with a denominator divisible by p, gcd_many decides.
    """
    gens = _generators(polys)
    p = gens[0].field.modulus or DEFAULT_PRIME
    if all(c.denominator % p for f in gens for c in f.terms.values()):
        images = _restrict_to_line(gens, p)
        if (any(image[-1] for image in images)
                and len(reduce(lambda a, b: _uni_gcd(a, b, p), images)) == 1):
            return MultiPoly.one(gens[0].field, gens[0].nvars)
    return gcd_many(gens)


@cache
def _line(p: int, nvars: int) -> tuple:
    """(P_v, Q_v) for each variable: the line P + sQ of common_factor."""
    stream = SeedStream(0)
    return tuple((stream.below(p), stream.below(p)) for _ in range(nvars))


def _restrict_to_line(polys, p: int) -> list:
    """Each f(P + sQ) mod p as deg f + 1 coefficients, lowest first; no
    denominator may be divisible by p.  Each (P_v + sQ_v)^e that occurs is
    reduced mod p and packed (linalg) once, and a term is one int product
    with coefficients below (n p)^(nvars + 1), n - 1 the top degree."""
    nvars, n = polys[0].nvars, 1 + max(f.total_degree() for f in polys)
    w = (nvars + 1) * (n * p).bit_length() + max(len(f.terms) for f in polys).bit_length()
    powers, exps = [], map(set, zip(*(exp for f in polys for exp in f.terms)))
    for (a, b), exps_v in zip(_line(p, nvars), exps):
        power, powers_v = [1], {}
        for e in range(max(exps_v) + 1):
            if e in exps_v:
                powers_v[e] = pack(power, p, w)     # power = (P_v + sQ_v)^e
            power = [(a * x + b * y) % p for x, y in zip(power + [0], [0] + power)]
        powers.append(powers_v)
    return [unpack(sum(c.numerator * pow(c.denominator, -1, p) % p
                       * prod(pw[e] for pw, e in zip(powers, exp))
                       for exp, c in f.terms.items()), f.total_degree() + 1, p, w)
            for f in polys]


# -- univariate helpers on coefficient lists over GF(p), lowest degree first

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
    """The number of points of a reduced zero-dimensional quotient A that
    are not common zeros of the combinations sum_j row[j] * G.span[j], one
    per row of `off`, none longer than the span (every point when `off` is
    empty, 0 for the unit ideal); None when A is not reduced or ell does not
    separate its points.

    coeffs are ell's coefficients, one per variable of G, over the prime
    field (QQ is refused), drawn at random by callers, who redraw a form
    that does not separate, such as 0 once dim > 1.  A is reduced and ell
    separates iff ell's minimal polynomial mu has degree dim = dim A and is
    squarefree (Faugere, Gianni, Lazard & Mora, JSC 1993).

    Normal forms are packed vectors over the standard monomials (linalg),
    reduced mod p before they multiply anything, made by a walk of the
    border in ascending order (Kehrein & Kreuzer, JPAA 2005): a lead's is
    minus its tail; another non-standard b has a variable x_u with b / x_u
    non-standard, and NF(b) sums c_t NF(x_u t), x_u t below b, over the
    terms of NF(b / x_u).  Each power of ell is reduced against the echelon
    rows of the ones before as it is made; a zero before ell^dim returns
    None.  Back substitution over the multipliers writes ell^dim, so mu, and
    each f of `off` over 1, ..., ell^(dim-1), as q_f(ell).  A slot sums
    nvars products (a column) or at most dim (a power, a border step, a run
    of f's terms), plus below p^2 per pivot: below 2 max(dim, nvars) p^2.
    At a point P, f(P) = q_f(ell(P)), and the ell(P) are the dim distinct
    roots of mu: the count is dim minus the degree of gcd(mu, every q_f).
    """
    p = G.field.modulus
    if p is None:
        raise DegenerateInputError("the reducedness test runs over a prime field")
    if len(coeffs) != G.nvars:
        raise DegenerateInputError(
            f"a linear form on {G.nvars} variables needs {G.nvars} coefficients, "
            f"got {len(coeffs)}")
    if any(len(row) > len(G.span) for row in off):
        raise DegenerateInputError(f"a row has more coefficients than the {len(G.span)} polys")
    pk, std = G.packing, G.standard
    if std is None:
        raise DegenerateInputError("ideal is not zero-dimensional")
    if not (dim := len(std)):
        return 0
    units, guards, index = pk.units, pk.guards, {m: k for k, m in enumerate(std)}
    width = slot_width(p, 2 * max(dim, G.nvars))
    mask = (1 << width) - 1

    def canonical(v):
        """v with every slot reduced mod p, packed in one pass."""
        out = 0
        for k in range(dim - 1, -1, -1):
            out = out << width | (v >> width * k & mask) % p
        return out

    nf = {m: 1 << width * k for m, k in index.items()}
    nf.update((lm, sum(-c % p << width * index[t] for t, c in tail)) for lm, tail in G.elems)

    def normal_form(m):
        """NF(m), down a chain of divisors m / x_u to a known one."""
        chain, b = [], m
        while b not in nf:
            u = next(u for u in units if not (b - u) & guards and b - u not in index)
            chain.append((b, u))
            b -= u
        for b, u in reversed(chain):
            nf[b] = canonical(sum(c * nf[s + u] for s, c in
                                  zip(std, unpack(nf[b - u], dim, p, width)) if c))
        return nf[m]

    for b in sorted({s + u for s in std for u in units}.difference(nf)):
        normal_form(b)
    cols = [canonical(sum(a % p * nf[s + u] for u, a in zip(units, coeffs))) for s in std]
    echelon = []        # (pivot shift, 1 / pivot, row k, multipliers f by row j < k)

    def eliminate(v):
        """v minus sum f * row over the echelon, unreduced, and the f."""
        mults = []
        for shift, inv, row, _ in echelon:
            if f := (v >> shift & mask) * inv % p:
                v += (p - f) * row
            mults.append(f)
        return v, mults

    def over_powers(v):
        """v's coefficients over 1, ..., ell^(dim-1), v in the rows' span."""
        g = eliminate(v)[1]
        for k in range(dim - 1, -1, -1):    # row k is ell^k - sum f * row j
            g[k] = c = g[k] % p
            for j, f in enumerate(echelon[k][3] if c else ()):
                g[j] -= c * f
        return g

    power = 1                               # std[0] is the monomial 1
    for _ in range(dim):
        v, mults = eliminate(power)
        if not (row := canonical(v)):
            return None
        shift = ((row & -row).bit_length() - 1) // width * width
        echelon.append((shift, pow(row >> shift & mask, -1, p), row, mults))
        power = sum(c * col for c, col in zip(unpack(power, dim, p, width), cols) if c)
    common = mu = [-c % p for c in over_powers(power)] + [1]
    if len(_uni_gcd(mu, [c * k % p for k, c in enumerate(mu)][1:], p)) != 1:
        return None
    for row in off:
        terms, v = _combination(row, G.span, p), 0
        for k in range(0, len(terms), dim):
            v = canonical(v + sum(c * normal_form(m) for m, c in terms[k:k + dim]))
        if len(common := _uni_gcd(common, over_powers(v), p)) == 1:
            break
    return dim + 1 - len(common) if off else dim
