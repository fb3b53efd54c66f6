"""Groebner bases and the ideal-theoretic queries built on them.

The basis computation is Buchberger's algorithm with the normal selection
strategy (smallest lcm first) and the two standard pair-elimination criteria
(coprime leading monomials, chain criterion).  Configurable caps on the
number of processed S-pairs and on the basis size turn runaway computations
into a reported failure instead of a hang.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .errors import DegenerateInputError, FieldMismatchError, ResourceLimitError
from .fields import PrimeField
from .poly import MultiPoly, degrevlex_key, lex_key
from .rand import SeedStream

DEFAULT_MAX_PAIRS = 200000
DEFAULT_MAX_BASIS = 5000


@dataclass(frozen=True)
class MonomialOrder:
    """degrevlex or lex."""

    kind: str

    def key(self, exp):
        return degrevlex_key(exp) if self.kind == "degrevlex" else lex_key(exp)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


@dataclass(frozen=True)
class Ideal:
    generators: tuple
    field: object
    nvars: int

    @classmethod
    def of(cls, generators) -> "Ideal":
        gens = tuple(g for g in generators if not g.is_zero())
        if not gens:
            raise DegenerateInputError("ideal needs at least one nonzero generator")
        f, nv = gens[0].field, gens[0].nvars
        for g in gens:
            if g.field != f or g.nvars != nv:
                raise FieldMismatchError("generators live in different rings")
        return cls(gens, f, nv)


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    basis: tuple
    field: object
    nvars: int
    lead_exps: tuple = dc_field(default=(), compare=False)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.lead_exps)


class _Elem:
    """A monic basis element in engine form."""

    __slots__ = ("lm", "key", "terms", "tail")

    def __init__(self, terms, keyfn):
        self.terms = terms                # [(exp, coeff)] descending, monic
        self.lm = terms[0][0]
        self.key = keyfn(self.lm)
        self.tail = terms[1:]


def _to_terms(p: MultiPoly, keyfn):
    return sorted(p.terms.items(), key=lambda t: keyfn(t[0]), reverse=True)


def _from_terms(terms, field, nvars) -> MultiPoly:
    return MultiPoly(field, nvars, dict(terms))


def _monic(terms, field):
    lc = terms[0][1]
    if lc == field.one():
        return terms
    inv = field.inv(lc)
    mul = field.mul
    return [(e, mul(c, inv)) for e, c in terms]


def _reduce_full(items, basis, keyfn, field):
    """Full normal form of sum(items) against monic basis elements.

    Uses a dict accumulator plus a lazy max-heap over monomial keys; every
    reduction step cancels the current leading monomial, and created
    monomials are strictly smaller, so one heap pass suffices.
    """
    acc: dict = {}
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    prime = field.modulus if isinstance(field, PrimeField) else None
    fadd, fsub, fmul, fneg = field.add, field.sub, field.mul, field.neg
    zero = field.zero()
    for exp, c in items:
        cur = acc.get(exp)
        if cur is None:
            acc[exp] = c
            push(heap, (tuple(-k for k in keyfn(exp)), exp))
        else:
            s = fadd(cur, c)
            if s == zero:
                del acc[exp]
            else:
                acc[exp] = s
    out = []
    while heap:
        _, exp = pop(heap)
        c = acc.pop(exp, None)
        if c is None:
            continue
        red = None
        for b in basis:
            lm = b.lm
            for a, e in zip(lm, exp):
                if a > e:
                    break
            else:
                red = b
                break
        if red is None:
            out.append((exp, c))
            continue
        shift = tuple(e - l for e, l in zip(exp, red.lm))
        if prime is not None:
            for texp, tc in red.tail:
                nexp = tuple(a + b for a, b in zip(texp, shift))
                cur = acc.get(nexp)
                if cur is None:
                    acc[nexp] = -c * tc % prime
                    push(heap, (tuple(-k for k in keyfn(nexp)), nexp))
                else:
                    nc = (cur - c * tc) % prime
                    if nc:
                        acc[nexp] = nc
                    else:
                        del acc[nexp]
        else:
            for texp, tc in red.tail:
                nexp = tuple(a + b for a, b in zip(texp, shift))
                cur = acc.get(nexp)
                if cur is None:
                    acc[nexp] = fneg(fmul(c, tc))
                    push(heap, (tuple(-k for k in keyfn(nexp)), nexp))
                else:
                    nc = fsub(cur, fmul(c, tc))
                    if nc == zero:
                        del acc[nexp]
                    else:
                        acc[nexp] = nc
    return out


def _spoly_terms(e1: _Elem, e2: _Elem, keyfn, field):
    lcm = tuple(max(a, b) for a, b in zip(e1.lm, e2.lm))
    s1 = tuple(l - a for l, a in zip(lcm, e1.lm))
    s2 = tuple(l - a for l, a in zip(lcm, e2.lm))
    acc: dict = {}
    zero = field.zero()
    for exp, c in e1.terms:
        acc[tuple(a + b for a, b in zip(exp, s1))] = c
    for exp, c in e2.terms:
        nexp = tuple(a + b for a, b in zip(exp, s2))
        cur = acc.get(nexp)
        s = field.neg(c) if cur is None else field.sub(cur, c)
        if s == zero:
            acc.pop(nexp, None)
        else:
            acc[nexp] = s
    return sorted(acc.items(), key=lambda t: keyfn(t[0]), reverse=True)


def _buchberger(gen_terms, keyfn, field, max_pairs, max_basis):
    basis: list[_Elem] = []
    pair_heap: list = []
    pending: set = set()

    def push_pairs(j):
        gj = basis[j]
        for i in range(j):
            gi = basis[i]
            lcm = tuple(max(a, b) for a, b in zip(gi.lm, gj.lm))
            # coprime leading monomials: S-poly reduces to zero, skip
            if all(min(a, b) == 0 for a, b in zip(gi.lm, gj.lm)):
                continue
            heapq.heappush(pair_heap, (keyfn(lcm), i, j, lcm))
            pending.add((i, j))

    for terms in gen_terms:
        if not terms:
            continue
        basis.append(_Elem(_monic(terms, field), keyfn))
        push_pairs(len(basis) - 1)

    processed = 0
    while pair_heap:
        _, i, j, lcm = heapq.heappop(pair_heap)
        pending.discard((i, j))
        processed += 1
        if processed > max_pairs:
            raise ResourceLimitError(
                f"S-pair cap exceeded ({max_pairs}); raise the limit to continue")
        # chain criterion: some other lead divides the lcm and both
        # companion pairs were already treated
        skip = False
        for k, gk in enumerate(basis):
            if k == i or k == j:
                continue
            if all(a <= l for a, l in zip(gk.lm, lcm)):
                pi = (min(i, k), max(i, k))
                pj = (min(j, k), max(j, k))
                if pi not in pending and pj not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly_terms(basis[i], basis[j], keyfn, field)
        r = _reduce_full(s, basis, keyfn, field)
        if not r:
            continue
        basis.append(_Elem(_monic(r, field), keyfn))
        if len(basis) > max_basis:
            raise ResourceLimitError(
                f"basis size cap exceeded ({max_basis}); raise the limit to continue")
        push_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    order = sorted(range(len(basis)), key=lambda t: basis[t].key)
    kept: list[_Elem] = []
    for idx in order:
        e = basis[idx]
        if any(all(a <= b for a, b in zip(k.lm, e.lm)) for k in kept):
            continue
        kept.append(e)
    # tail-reduce each element against the others
    reduced = []
    for pos, e in enumerate(kept):
        others = kept[:pos] + kept[pos + 1:]
        r = _reduce_full(e.terms, others, keyfn, field)
        reduced.append(_Elem(_monic(r, field), keyfn))
    reduced.sort(key=lambda e: e.key)
    return reduced


def groebner(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
             max_pairs: int | None = None, max_basis: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal; deterministic for fixed input."""
    keyfn = order.key
    gen_terms = [_to_terms(g, keyfn) for g in ideal.generators]
    elems = _buchberger(gen_terms, keyfn, ideal.field,
                        max_pairs or DEFAULT_MAX_PAIRS,
                        max_basis or DEFAULT_MAX_BASIS)
    polys = tuple(_from_terms(e.terms, ideal.field, ideal.nvars) for e in elems)
    return GroebnerBasis(order, polys, ideal.field, ideal.nvars,
                         tuple(e.lm for e in elems))


def _basis_elems(G: GroebnerBasis):
    keyfn = G.order.key
    return [_Elem(_to_terms(p, keyfn), keyfn) for p in G.basis]


def normal_form(p: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """The unique remainder of p modulo G; zero iff p lies in the ideal."""
    if p.field != G.field or p.nvars != G.nvars:
        raise FieldMismatchError("polynomial and basis live in different rings")
    keyfn = G.order.key
    r = _reduce_full(_to_terms(p, keyfn), _basis_elems(G), keyfn, G.field)
    return _from_terms(r, G.field, G.nvars)


def is_zero_dimensional(G: GroebnerBasis) -> bool:
    """True iff the quotient ring is a finite-dimensional vector space."""
    if G.is_unit_ideal():
        return True
    for v in range(G.nvars):
        if not any(exp[v] and all(e == 0 for i, e in enumerate(exp) if i != v)
                   for exp in G.lead_exps):
            return False
    return True


def _standard_monomials(lead_exps, nvars, cap=1 << 22):
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
        if len(out) > cap:
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


def standard_monomials(G: GroebnerBasis):
    if not is_zero_dimensional(G):
        raise DegenerateInputError("ideal is not zero-dimensional")
    return sorted(_standard_monomials(G.lead_exps, G.nvars), key=degrevlex_key)


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the quotient; -1 for the unit ideal.

    Computed combinatorially as the largest variable subset containing the
    support of no leading monomial.
    """
    if G.is_unit_ideal():
        return -1
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in G.lead_exps]
    n = G.nvars
    best = 0
    # subsets encoded as bitmasks, largest first
    for size in range(n, 0, -1):
        if size <= best:
            break
        for mask in range(1 << n):
            if bin(mask).count("1") != size:
                continue
            sset = {i for i in range(n) if mask >> i & 1}
            if all(not s <= sset for s in supports):
                best = size
                break
        if best == size:
            break
    return best


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

    Draws a random linear form, computes its minimal polynomial on the
    quotient by linear algebra over the standard monomials, and accepts iff
    the minimal polynomial is squarefree of degree equal to the quotient
    dimension.  A non-separating form yields a false negative; callers retry.
    """
    field = G.field
    if not is_zero_dimensional(G):
        raise DegenerateInputError("ideal is not zero-dimensional")
    std = _standard_monomials(G.lead_exps, G.nvars)
    dim = len(std)
    if dim == 0:
        return True
    index = {m: i for i, m in enumerate(std)}
    elems = _basis_elems(G)
    keyfn = G.order.key
    bound = field.modulus if isinstance(field, PrimeField) else (1 << 20)
    while True:
        coeffs = [field.from_int(stream.below(bound)) for _ in range(G.nvars)]
        if any(c != field.zero() for c in coeffs):
            break
    ell = MultiPoly.from_terms(
        field, G.nvars,
        ((tuple(1 if j == v else 0 for j in range(G.nvars)), c)
         for v, c in enumerate(coeffs) if c != field.zero()))

    zero, one = field.zero(), field.one()
    # incremental row echelon over the standard-monomial coordinates,
    # tracking each reduced row as a combination of the power vectors
    pivots: list[tuple[int, list, list]] = []
    power = MultiPoly.one(field, G.nvars)
    for k in range(dim + 1):
        vec = [zero] * dim
        for exp, c in power.terms.items():
            vec[index[exp]] = c
        combo = [zero] * (dim + 1)
        combo[k] = one
        for piv, row, rcombo in pivots:
            c = vec[piv]
            if c == zero:
                continue
            vec = [field.sub(a, field.mul(c, b)) for a, b in zip(vec, row)]
            combo = [field.sub(a, field.mul(c, b)) for a, b in zip(combo, rcombo)]
        piv = next((i for i, c in enumerate(vec) if c != zero), None)
        if piv is None:
            # dependency: combo gives the minimal polynomial of ell
            mu = combo[:k + 1]
            if k != dim:
                return False
            return _uni_gcd_is_unit(mu, field)
        inv = field.inv(vec[piv])
        vec = [field.mul(c, inv) for c in vec]
        combo = [field.mul(c, inv) for c in combo]
        pivots.append((piv, vec, combo))
        nxt = _reduce_full(_to_terms(ell * power, keyfn), elems, keyfn, field)
        power = _from_terms(nxt, field, G.nvars)
    raise AssertionError("minimal polynomial search exceeded quotient dimension")
