"""Independent oracles used to freeze expected values.

Everything here avoids the package's Groebner path on purpose: univariate
arithmetic over GF(p) on plain coefficient lists, resultants by evaluation
and Lagrange interpolation, counts of distinct roots through squarefree
parts, the division algorithm and a criterion-free Buchberger on
exponent-tuple dicts, and the ideal of explicit points by interpolation,
with point counts by evaluation.  The fiber-count oracle solves the generic-fiber
system of a plane polar map by eliminating one variable with a resultant.
Substitution has a term-by-term reference built on MultiPoly's own sum and
product, and the radial contraction one built on its shift and sum.  The
restriction of a poly to a line comes from its values at points of the line,
interpolated.  A foliation's generic section is pulled back along a random
full-rank embedding matrix, not a graph, term by term.  The foliation
attached to a weighted product has its 1-form from the product formula.
"""

from __future__ import annotations

import random
from functools import cache


# -- univariate polynomials over GF(p) as coefficient lists (low degree first)

def utrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def uadd(a, b, p):
    n = max(len(a), len(b))
    return utrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def uscale(a, c, p):
    return utrim([x * c % p for x in a])


def umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return utrim(out)


def umod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        for i, y in enumerate(b):
            a[off + i] = (a[off + i] - c * y) % p
        utrim(a)
        if not a:
            break
    return a


def ugcd(a, b, p):
    a, b = utrim(list(a)), utrim(list(b))
    while b:
        a, b = b, umod(a, b, p)
    return a


def uderiv(a, p):
    return utrim([a[i] * i % p for i in range(1, len(a))])


def distinct_root_count(a, p) -> int:
    """Number of distinct roots of a over the algebraic closure."""
    a = utrim(list(a))
    if len(a) <= 1:
        return 0
    g = ugcd(a, uderiv(a, p), p)
    return (len(a) - 1) - (len(g) - 1)


def uresultant(f, g, p) -> int:
    """Resultant of univariate polynomials by the Euclidean product formula."""
    f, g = utrim(list(f)), utrim(list(g))
    if not f or not g:
        return 0
    res = 1
    while True:
        if len(g) == 1:
            return res * pow(g[0], len(f) - 1, p) % p
        if len(f) < len(g):
            if ((len(f) - 1) * (len(g) - 1)) % 2 == 1:
                res = (p - res) % p
            f, g = g, f
            continue
        r = umod(f, g, p)
        if not r:
            return 0
        df, dg, dr = len(f) - 1, len(g) - 1, len(r) - 1
        if (df * dg) % 2 == 1:
            res = (p - res) % p
        res = res * pow(g[-1], df - dr, p) % p
        f, g = g, r


def lagrange_interpolate(points, p):
    """Coefficients of the unique polynomial through the given (x, y) pairs."""
    n = len(points)
    coeffs = [0] * n
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = umul(basis, [(-xj) % p, 1], p)
            denom = denom * (xi - xj) % p
        c = yi * pow(denom, -1, p) % p
        scaled = uscale(basis, c, p)
        coeffs = [(a + (scaled[t] if t < len(scaled) else 0)) % p
                  for t, a in enumerate(coeffs)]
    return utrim(coeffs)


def points_ideal(points, field):
    """Generators of the ideal of distinct points over GF(p), given as int
    tuples with distinct first coordinates: the product of x0 - a over the
    first coordinates a, and x_v - g_v(x0) for v >= 1, with g_v the Lagrange
    interpolant of the v-th coordinates over the first."""
    from polardeg.poly import MultiPoly

    p, nvars = field.modulus, len(points[0])

    def in_x0(coeffs):
        return MultiPoly.from_terms(field, nvars, [((k,) + (0,) * (nvars - 1), c)
                                                   for k, c in enumerate(coeffs) if c])

    vanishing = [1]
    for point in points:
        vanishing = umul(vanishing, [-point[0] % p, 1], p)
    return [in_x0(vanishing)] + [
        MultiPoly.variable(field, nvars, v)
        - in_x0(lagrange_interpolate([(pt[0], pt[v]) for pt in points], p))
        for v in range(1, nvars)]


def count_points_off(points, off, p):
    """How many of the points are not common zeros of the package MultiPolys
    in off, by evaluation."""
    return sum(any(eval_poly(f, point, p) for f in off) for point in points)


# -- small helpers on the package's polynomials -------------------------------

def eval_poly(poly, point, p):
    """Evaluate a package MultiPoly over GF(p) at a point given as ints."""
    total = 0
    for exp, c in poly.terms.items():
        v = c
        for x, e in zip(point, exp):
            if e:
                v = v * pow(x, e, p) % p
        total = (total + v) % p
    return total


def line_restriction(poly, line, p):
    """poly(P + tQ) over GF(p) as deg poly + 1 coefficients, lowest first,
    by evaluation at t = 0 .. deg and Lagrange interpolation.  line holds
    the pairs (P_v, Q_v); no denominator of poly may be divisible by p."""
    from fractions import Fraction

    deg, values = poly.total_degree(), []
    for t in range(deg + 1):
        point = [(a + t * b) % p for a, b in line]
        total = 0
        for exp, c in poly.terms.items():
            c = Fraction(c)
            v = c.numerator * pow(c.denominator, -1, p)
            for x, e in zip(point, exp):
                v = v * pow(x, e, p) % p
            total += v
        values.append((t, total % p))
    coeffs = lagrange_interpolate(values, p)
    return coeffs + [0] * (deg + 1 - len(coeffs))


def is_homogeneous(poly) -> bool:
    """All terms share one total degree; the zero polynomial counts."""
    return len({sum(exp) for exp in poly.terms}) <= 1


def substitute_termwise(poly, images):
    """poly with x_i -> images[i], one term at a time.

    Each image's powers come from repeated products, each term is a
    constant times a product of powers, and the terms are summed one by one
    with MultiPoly addition, largest monomial first.
    """
    from polardeg.poly import MultiPoly

    field, nv = images[0].field, images[0].nvars
    pows = [[MultiPoly.one(field, nv), im] for im in images]
    for i, im in enumerate(images):
        top = max((exp[i] for exp in poly.terms), default=0)
        while len(pows[i]) <= top:
            pows[i].append(pows[i][-1] * im)
    out = MultiPoly.zero(field, nv)
    for exp, c in poly.sorted_terms():
        term = MultiPoly.constant(field, nv, c)
        for i, e in enumerate(exp):
            if e:
                term = term * pows[i][e]
        out = out + term
    return out


def full_embedding_section(fol, k, seed):
    """The foliation pulled back along a uniform full-rank (n+1) x (k+1)
    matrix M, x = M z: the coefficient of dz_j is sum_r M[r][j] a_r(M z),
    each a_r substituted term by term.  foliation_from_form clears the
    result and re-checks its contraction and integrability."""
    from polardeg.foliations import foliation_from_form
    from polardeg.poly import MultiPoly

    field, n = fol.field, fol.ambient_dim
    p, rng = field.modulus, random.Random(seed)
    while True:
        M = [[rng.randrange(p) for _ in range(k + 1)] for _ in range(n + 1)]
        if len(gauss_jordan(M, p)[1]) == k + 1:
            break
    z = [MultiPoly.variable(field, k + 1, j) for j in range(k + 1)]

    def combine(scalars, polys):
        out = MultiPoly.zero(field, k + 1)
        for c, q in zip(scalars, polys):
            out = out + q.scale(c)
        return out

    pulled = [substitute_termwise(a, [combine(row, z) for row in M]) for a in fol.coeffs]
    return foliation_from_form([combine(col, pulled) for col in zip(*M)])


def euler_contraction_by_shifts(forms):
    """sum(x_i * a_i) as MultiPoly sums of each a_i shifted by x_i."""
    from polardeg.poly import MultiPoly

    field, nv = forms[0].field, forms[0].nvars
    out = MultiPoly.zero(field, nv)
    for i, a in enumerate(forms):
        out = out + a.shift(tuple(int(j == i) for j in range(nv)), field.one())
    return out


def _bivariate_coeff_lists(poly, p):
    """A 2-variable MultiPoly as nested lists: coefficient of w0^i is a list in w1."""
    d0 = max((exp[0] for exp in poly.terms), default=0)
    out = [[] for _ in range(d0 + 1)]
    for (e0, e1), c in poly.terms.items():
        row = out[e0]
        while len(row) <= e1:
            row.append(0)
        row[e1] = c % p
    return [utrim(row) for row in out]


def bivariate_resultant_w0(f, g, p):
    """Res_{w0}(f, g) for 2-variable package polynomials, by evaluation.

    Requires the w0-leading coefficients of both inputs to be nonzero
    constants so no evaluation point degenerates.
    """
    cf = _bivariate_coeff_lists(f, p)
    cg = _bivariate_coeff_lists(g, p)
    if len(cf[-1]) != 1 or len(cg[-1]) != 1:
        raise ValueError("leading coefficients must be constants")
    bound = (len(cf) - 1) * (len(cg) - 1) + 1
    points = []
    t = 1
    while len(points) < bound:
        fv = utrim([_eval_list(row, t, p) if row else 0 for row in cf])
        gv = utrim([_eval_list(row, t, p) if row else 0 for row in cg])
        points.append((t, uresultant(fv, gv, p)))
        t += 1
    return lagrange_interpolate(points, p)


def _eval_list(row, t, p):
    acc = 0
    for c in reversed(row):
        acc = (acc * t + c) % p
    return acc


def plane_map_line_preimage_count(components, p, seed=0) -> int:
    """Points where the preimage of a generic target line meets a generic line.

    Pulls one random linear form back through the map and counts distinct
    roots along a random parametrized line, including the parameter at
    infinity.  Exact for morphisms (base-point-free components).
    """
    rng = random.Random(seed)
    from polardeg.fields import GF
    from polardeg.poly import MultiPoly

    field = GF(p)
    while True:
        ell = [rng.randrange(1, p) for _ in range(3)]
        curve = MultiPoly.zero(field, 3)
        for coef, c in zip(ell, components):
            curve = curve + c.scale(coef)
        if curve.is_zero():
            continue
        base = [rng.randrange(p) for _ in range(3)]
        direction = [rng.randrange(p) for _ in range(3)]
        images = [MultiPoly.from_terms(field, 1, (((0,), base[r]), ((1,), direction[r])))
                  for r in range(3)]
        f = curve.substitute(images)
        coeffs = [0] * (f.total_degree() + 1)
        for (e,), c in f.terms.items():
            coeffs[e] = c
        count = distinct_root_count(coeffs, p)
        at_infinity = eval_poly(curve, direction, p) == 0
        if f.is_zero():
            continue
        return count + (1 if at_infinity else 0)


def plane_map_fiber_count(components, p, seed=0) -> int:
    """Distinct points in the fiber of a plane map over a generic target.

    Counts affine-chart solutions of the wedge system by a resultant plus
    solutions on the line at infinity by a binary-form gcd.  Only valid as a
    fiber count for base-point-free maps (smooth-curve polars): base points
    solve the wedge system too and would inflate the count.
    """
    rng = random.Random(seed)
    from polardeg.fields import GF
    from polardeg.poly import MultiPoly

    field = GF(p)
    while True:
        y = [rng.randrange(1, p) for _ in range(3)]
        # fiber of [y0:y1:y2]: two wedge equations (c parallel to y)
        e1 = components[1].scale(y[0]) - components[0].scale(y[1])
        e2 = components[2].scale(y[0]) - components[0].scale(y[2])
        # random chart x = A (w0, w1, 1); leading w0-coefficients must be scalars
        A = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        images = []
        for r in range(3):
            images.append(MultiPoly.from_terms(field, 2, (
                ((1, 0), A[r][0]), ((0, 1), A[r][1]), ((0, 0), A[r][2]))))
        f = e1.substitute(images)
        g = e2.substitute(images)
        d1 = e1.total_degree()
        d2 = e2.total_degree()
        if f.is_zero() or g.is_zero():
            continue
        top_f = {exp: c for exp, c in f.terms.items() if sum(exp) == d1}
        top_g = {exp: c for exp, c in g.terms.items() if sum(exp) == d2}
        if top_f.get((d1, 0), 0) == 0 or top_g.get((d2, 0), 0) == 0:
            continue
        if top_f.get((0, d1), 0) == 0 or top_g.get((0, d2), 0) == 0:
            continue
        res = bivariate_resultant_w0(f, g, p)
        if not res:
            continue
        affine = distinct_root_count(res, p)
        # line at infinity: common projective roots of the top binary forms
        tf = [0] * (d1 + 1)
        for (a, b), c in top_f.items():
            tf[b] = c
        tg = [0] * (d2 + 1)
        for (a, b), c in top_g.items():
            tg[b] = c
        h = ugcd(utrim(tf), utrim(tg), p)
        at_infinity = distinct_root_count(h, p)
        # both leading coefficients are nonzero at [1:0], so the gcd sees
        # every common root of the binary forms
        return affine + at_infinity


# -- the division algorithm and Buchberger's algorithm with no criteria -------
#
# Polynomials are dicts from exponent tuples to coefficients, under degrevlex,
# apart from the engine's packed monomials.

@cache
def _key(exp):
    from polardeg.poly import degrevlex_key
    return degrevlex_key(exp)


def _lead(p):
    return max(p, key=_key)


def _add_multiple(acc, p, shift, c, field):
    """acc += c * x^shift * p, dropping cancelled terms."""
    zero = field.zero()
    for e, pc in p.items():
        ne = tuple(x + y for x, y in zip(e, shift))
        v = field.add(acc.get(ne, zero), field.mul(c, pc))
        if v == zero:
            acc.pop(ne, None)
        else:
            acc[ne] = v


def _remainder(p, divisors, field):
    """The remainder of p on division by monic divisors: every term is
    reduced by the first divisor whose lead divides it, largest term first."""
    p, out, leads = dict(p), {}, [(_lead(g), g) for g in divisors]
    while p:
        e = _lead(p)
        lg, g = next(((lg, g) for lg, g in leads if all(x <= y for x, y in zip(lg, e))),
                     (None, None))
        if g is None:
            out[e] = p.pop(e)
        else:
            shift = tuple(x - y for x, y in zip(e, lg))
            _add_multiple(p, g, shift, field.neg(p[e]), field)
    return out


def normal_form(p, G):
    """The remainder of package MultiPoly p on division by the elements of
    the package basis G; unique, and zero iff p lies in the ideal, when G is
    a Groebner basis."""
    from polardeg.poly import MultiPoly

    divisors = [dict(g.terms) for g in G.basis]
    return MultiPoly(p.field, p.nvars, _remainder(p.terms, divisors, p.field))


def plain_reduced_basis(polys):
    """Reduced Groebner basis of package MultiPolys by plain Buchberger.

    No pair is skipped: the S-polynomial of every two elements, taken first
    in first out, is reduced against every element found so far.  Returns
    the monic reduced basis as MultiPolys, ascending by leading monomial.
    """
    from polardeg.poly import MultiPoly, degrevlex_key

    field, nvars = polys[0].field, polys[0].nvars

    def monic(p):
        inv = field.inv(p[_lead(p)])
        return {e: field.mul(c, inv) for e, c in p.items()}

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    basis = [monic(dict(p.terms)) for p in polys if not p.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lcm = tuple(map(max, _lead(f), _lead(g)))
        s: dict = {}
        _add_multiple(s, f, tuple(x - y for x, y in zip(lcm, _lead(f))), field.one(), field)
        _add_multiple(s, g, tuple(x - y for x, y in zip(lcm, _lead(g))),
                      field.neg(field.one()), field)
        r = _remainder(s, basis, field)
        if r:
            basis.append(monic(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    minimal: list = []
    for g in sorted(basis, key=lambda g: degrevlex_key(_lead(g))):
        if not any(divides(_lead(k), _lead(g)) for k in minimal):
            minimal.append(g)
    out = []
    for pos, g in enumerate(minimal):
        lm = _lead(g)
        tail = _remainder({e: c for e, c in g.items() if e != lm},
                          minimal[:pos] + minimal[pos + 1:], field)
        out.append(MultiPoly(field, nvars, {lm: g[lm], **tail}))
    return out


# -- reducedness through normal forms of the powers of a random form ----------

def reduced_by_normal_forms(G, coeffs, off=()) -> int | None:
    """The answer of is_reduced_zero_dim by plain means on the same form:
    the number of points off the common zeros of the polys that the rows of
    off combine from G's span (every point when off is empty), or None.

    The standard monomials are the exponent vectors in a box that no lead
    divides.  ell has the given coefficients, each power ell^k is the normal
    form of ell * ell^(k-1), and the minimal polynomial comes from
    gauss_jordan on their coordinates: the quotient is reduced with ell
    separating iff it has degree dim and is coprime to its derivative.  Each
    row's poly f is summed from the span, unpacked term by term, and the
    same elimination writes its normal form over the powers 1 ..
    ell^(dim-1), as q_f(ell); the count is dim minus the degree of
    gcd(mu, q_f for every f).  Refuses an infinite quotient like the package.
    """
    from itertools import product

    from polardeg.errors import DegenerateInputError
    from polardeg.poly import MultiPoly

    field, nvars, leads = G.field, G.nvars, G.lead_exps
    pure = [max((e[v] for e in leads if not any(e[:v] + e[v + 1:])), default=0)
            for v in range(nvars)]
    if not all(pure) and not G.is_unit_ideal():
        raise DegenerateInputError("ideal is not zero-dimensional")
    std = [e for e in product(*(range(d) for d in pure))
           if not any(all(a <= b for a, b in zip(lead, e)) for lead in leads)]
    dim = len(std)
    if dim == 0:
        return 0
    p = field.modulus
    ell = MultiPoly.from_terms(field, nvars, [(tuple(int(w == v) for w in range(nvars)), a)
                                             for v, a in enumerate(coeffs)])
    columns, power = [], MultiPoly.one(field, nvars)
    for _ in range(dim + 1):
        power = normal_form(power, G)
        columns.append([power.terms.get(e, 0) for e in std])
        power = power * ell
    span = [MultiPoly(field, nvars, {G.packing.unpack(m): c for m, c in terms})
            for terms in G.span]
    targets = [[-c % p for c in columns[dim]]]
    for row in off:
        f = MultiPoly.zero(field, nvars)
        for a, poly in zip(row, span):
            f = f + poly.scale(a)
        nf = normal_form(f, G)
        targets.append([nf.terms.get(e, 0) for e in std])
    # solve sum_k a_k ell^k = -ell^dim, k < dim, or find the columns
    # dependent, and write each normal form the same way
    rows = [[col[r] for col in columns[:dim]] + [t[r] for t in targets] for r in range(dim)]
    rref, pivots = gauss_jordan(rows, p)
    if pivots != list(range(dim)):
        return None
    mu = [row[dim] for row in rref] + [1]
    if len(ugcd(mu, uderiv(mu, p), p)) != 1:
        return None
    if not off:
        return dim
    common = mu
    for k in range(len(off)):
        common = ugcd(common, [row[dim + 1 + k] for row in rref], p)
    return dim - (len(common) - 1)


def gauss_jordan(rows, p):
    """(rref, pivot columns) of an int matrix over GF(p), each pivot clearing
    its whole column in one pass."""
    rows, pivots = [list(r) for r in rows], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def associated_form_by_product(W):
    """The 1-form attached to W on P^{n+1}, uncleared: x_{n+1} times
    sum_j mu_j Fhat_j dF_j/dx_a for a <= n, then minus the scaled total degree
    times the product of the factors, mu the weights cleared to integers and
    Fhat_j the product of the other factors, each formed on its own."""
    from math import lcm

    from polardeg.poly import MultiPoly

    field, nv, factors = W.field, W.nvars, list(W.factors)
    scale = lcm(*(w.denominator for w in W.weights))
    mu = [int(w * scale) for w in W.weights]

    def product(polys):
        out = MultiPoly.one(field, nv)
        for f in polys:
            out = out * f
        return out

    def lift(p, e):
        return MultiPoly(field, nv + 1, {exp + (e,): c for exp, c in p.terms.items()})

    form = []
    for a in range(nv):
        acc = MultiPoly.zero(field, nv)
        for j, f in enumerate(factors):
            hat = product(factors[:j] + factors[j + 1:])
            acc = acc + (hat * f.diff(a)).scale(field.from_int(mu[j]))
        form.append(lift(acc, 1))
    total = sum(m * f.total_degree() for m, f in zip(mu, factors))
    return form + [lift(product(factors), 0).scale(field.from_int(-total))]
