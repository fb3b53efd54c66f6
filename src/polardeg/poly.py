"""Exact multivariate polynomial arithmetic over QQ or GF(p).

Polynomials are immutable-by-convention sparse maps from dense exponent
tuples to nonzero field scalars, with a fixed variable count.  Variables are
x0 .. x{nvars-1}; nvars stays small (<= 8) in every target computation.  The
dense exponent tuple is the public form of a monomial, used by this module's
arithmetic and gcd; the Groebner engine packs each monomial into one int
(see `groebner`) and converts only at its entry and exit.

The multivariate gcd is a recursive content/primitive-part reduction with a
subresultant pseudo-remainder sequence in the main variable; results are
normalized so the lexicographically leading scalar coefficient is 1.
"""

from __future__ import annotations

from .errors import DegenerateInputError, FieldMismatchError
from .fields import RationalField

Exponent = tuple


def degrevlex_key(exp):
    """Flat sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(exp), *(-e for e in reversed(exp)))


class MultiPoly:
    """Sparse exact polynomial with a fixed ambient variable count."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, c) -> "MultiPoly":
        if c == field.zero():
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, field, nvars: int) -> "MultiPoly":
        return cls.constant(field, nvars, field.one())

    @classmethod
    def variable(cls, field, nvars: int, v: int) -> "MultiPoly":
        if not 0 <= v < nvars:
            raise ValueError(f"variable index {v} out of range for {nvars} variables")
        exp = tuple(1 if i == v else 0 for i in range(nvars))
        return cls(field, nvars, {exp: field.one()})

    @classmethod
    def from_terms(cls, field, nvars: int, items) -> "MultiPoly":
        """Build from (exponent, coefficient) pairs, combining duplicates."""
        terms: dict = {}
        zero = field.zero()
        for exp, c in items:
            if len(exp) != nvars:
                raise ValueError("exponent length does not match variable count")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            cur = terms.get(exp)
            c = c if cur is None else field.add(cur, c)
            if c == zero:
                terms.pop(exp, None)
            else:
                terms[exp] = c
        return cls(field, nvars, terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def variables_present(self):
        used = [False] * self.nvars
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return [i for i, u in enumerate(used) if u]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponent, coefficient) of the degrevlex-largest monomial; None for zero."""
        if not self.terms:
            return None
        exp = max(self.terms, key=degrevlex_key)
        return exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.field != other.field:
            raise FieldMismatchError("coefficient fields differ")
        if self.nvars != other.nvars:
            raise FieldMismatchError("variable counts differ")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        field = self.field
        zero = field.zero()
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            cur = terms.get(exp)
            s = c if cur is None else field.add(cur, c)
            if s == zero:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly(field, self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        neg = self.field.neg
        return MultiPoly(self.field, self.nvars,
                         {exp: neg(c) for exp, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        field = self.field
        mul, add = field.mul, field.add
        zero = field.zero()
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = mul(c1, c2)
                cur = terms.get(exp)
                s = prod if cur is None else add(cur, prod)
                if s == zero:
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return MultiPoly(field, self.nvars, terms)

    def scale(self, c) -> "MultiPoly":
        if c == self.field.zero():
            return MultiPoly.zero(self.field, self.nvars)
        mul = self.field.mul
        return MultiPoly(self.field, self.nvars,
                         {exp: mul(coef, c) for exp, coef in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.one(self.field, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, exp_shift, c) -> "MultiPoly":
        """Multiply by the single term c * x^exp_shift."""
        mul = self.field.mul
        return MultiPoly(self.field, self.nvars, {
            tuple(a + b for a, b in zip(exp, exp_shift)): mul(coef, c)
            for exp, coef in self.terms.items()})

    def diff(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to x{var}."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for {self.nvars} variables")
        field = self.field
        zero = field.zero()
        terms: dict = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            coef = field.mul(c, field.from_int(e))
            if coef == zero:
                continue
            nexp = exp[:var] + (e - 1,) + exp[var + 1:]
            terms[nexp] = coef
        return MultiPoly(field, self.nvars, terms)

    # -- substitution ----------------------------------------------------------

    def substitute(self, images: list) -> "MultiPoly":
        """Compose with x_i -> images[i]: `substitute_all` on this poly alone."""
        return substitute_all([self], images)[0]

    def to_field(self, field) -> "MultiPoly":
        """Map coefficients into another field (QQ -> GF(p), or identity)."""
        if field == self.field:
            return self
        if not isinstance(self.field, RationalField):
            raise FieldMismatchError("can only move coefficients from QQ to a prime field")
        return MultiPoly.from_terms(
            field, self.nvars,
            ((exp, field.from_fraction(c)) for exp, c in self.terms.items()))

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"MultiPoly({self.field!r}, {self.nvars}, {poly_str(self)!r})"


def substitute_all(polys: list, images: list) -> list:
    """Compose every poly with x_i -> images[i]; images live in a common ring.

    The polys share one memo of monomial images, local to the call: the
    image of x^e is the image of x^(e - unit_v) times images[v], v the last
    variable of e.  A term's own image goes straight into its poly's result
    and is not stored.  Target monomials are ints, one bit field per
    variable wide enough for any exponent; coefficients (ints mod p or
    Fractions) are multiplied and summed as plain numbers and brought back
    into the field once per stored value, zeros dropped.
    """
    if any(p.nvars != len(images) for p in polys):
        raise FieldMismatchError("need one image per variable")
    if not polys:
        return []
    field, nv = images[0].field, images[0].nvars
    if any(q.field != field for q in polys + images) or any(im.nvars != nv for im in images):
        raise FieldMismatchError("the polys and images do not share one ring of scalars")
    zero = field.zero()
    top = max(p.total_degree() for p in polys) * max(im.total_degree() for im in images)
    width = max(top, 1).bit_length()
    shifts, mask = range(0, width * nv, width), (1 << width) - 1
    ims = [[(sum(e << s for e, s in zip(exp, shifts)), c) for exp, c in im.terms.items()]
           for im in images]
    memo = {(0,) * len(images): {0: field.one()}}

    def settle(acc):
        return {m: r for m, c in acc.items() if (r := field.add(c, zero)) != zero}

    def add_image(acc, exp, c):
        """acc += c * (image of x^exp), for exp != 0."""
        v = len(exp) - 1
        while not exp[v]:
            v -= 1
        prefix = exp[:v] + (exp[v] - 1,) + exp[v + 1:]
        base = memo.get(prefix)
        if base is None:
            base = memo[prefix] = settle(add_image({}, prefix, 1))
        scaled = [(m2, c * c2) for m2, c2 in ims[v]]
        for m1, c1 in base.items():
            for m2, c2 in scaled:
                acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
        return acc

    out = []
    for p in polys:
        acc: dict = {}
        for exp, c in p.terms.items():
            if any(exp):
                add_image(acc, exp, c)
            else:
                acc[0] = acc.get(0, 0) + c
        out.append(MultiPoly(field, nv, {tuple((m >> s) & mask for s in shifts): c
                                         for m, c in settle(acc).items()}))
    return out


def poly_str(p: MultiPoly) -> str:
    """Canonical text form; parses back to an equal polynomial."""
    if p.is_zero():
        return "0"
    rational = isinstance(p.field, RationalField)
    pieces = []
    for idx, (exp, c) in enumerate(p.sorted_terms()):
        if rational and c < 0:
            sign = "-" if idx == 0 else " - "
            c = -c
        else:
            sign = "" if idx == 0 else " + "
        factors = []
        coeff_txt = str(c)
        if not any(exp):
            factors.append(coeff_txt)
        else:
            if coeff_txt != "1":
                factors.append(coeff_txt)
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces)


def homogeneous_degree(p: MultiPoly) -> int:
    """The degree of a homogeneous p, -1 for zero; refuses any other p."""
    degs = {sum(exp) for exp in p.terms}
    if len(degs) > 1:
        raise DegenerateInputError(f"{p} is not homogeneous")
    return degs.pop() if degs else -1


def euler_contraction(forms) -> MultiPoly:
    """Contract the 1-form sum(a_i dx_i) with the radial vector field.

    Returns sum(x_i * a_i); it vanishes exactly when the form descends to
    projective space.  The shifted terms are summed as plain numbers and
    brought into the field once each, zeros dropped.
    """
    polys = list(forms)
    if not polys:
        raise ValueError("empty coefficient sequence")
    field, nvars = polys[0].field, polys[0].nvars
    if nvars != len(polys):
        raise FieldMismatchError(
            f"need exactly {nvars} coefficients for {nvars} variables, got {len(polys)}")
    if any(p.field != field or p.nvars != nvars for p in polys):
        raise FieldMismatchError("coefficients live in different rings")
    degs = {p.total_degree() for p in polys if not p.is_zero()}
    if len(degs) > 1:
        raise ValueError(f"coefficient degrees differ: {sorted(degs)}")
    zero, acc = field.zero(), {}
    for i, p in enumerate(polys):
        for exp, c in p.terms.items():
            exp = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
            acc[exp] = acc.get(exp, 0) + c
    return MultiPoly(field, nvars, {exp: r for exp, c in acc.items()
                                    if (r := field.add(c, zero)) != zero})


def gradient(p: MultiPoly) -> list[MultiPoly]:
    return [p.diff(i) for i in range(p.nvars)]


def linear_combination(scalars, polys) -> MultiPoly:
    """sum(c_i * p_i) over the nonzero scalars; the polys share one ring."""
    field = polys[0].field
    out = MultiPoly.zero(field, polys[0].nvars)
    for c, p in zip(scalars, polys):
        if c != field.zero():
            out = out + p.scale(c)
    return out


# -- multivariate gcd --------------------------------------------------------

def _lex_normalize(p: MultiPoly) -> MultiPoly:
    """Scale so the lex-leading coefficient is 1."""
    if p.is_zero():
        return p
    return p.scale(p.field.inv(p.terms[max(p.terms)]))


def _main_var_profile(p: MultiPoly, m: int):
    """View p as univariate in x{m}: dict degree -> coefficient polynomial."""
    by_deg: dict = {}
    for exp, c in p.terms.items():
        e = exp[m]
        nexp = exp[:m] + (0,) + exp[m + 1:]
        coeff = by_deg.setdefault(e, {})
        coeff[nexp] = c
    return {e: MultiPoly(p.field, p.nvars, t) for e, t in by_deg.items()}


def _deg_in(p: MultiPoly, m: int) -> int:
    return max((exp[m] for exp in p.terms), default=-1)


def exact_divide(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Quotient p/d when the division is exact; raises otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    field = p.field
    quot = MultiPoly.zero(field, p.nvars)
    lead_d, lc_d = d.leading()
    inv_lc = field.inv(lc_d)
    rem = p
    while not rem.is_zero():
        lead_r, lc_r = rem.leading()
        diff = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in diff):
            raise ArithmeticError("division is not exact")
        c = field.mul(lc_r, inv_lc)
        quot = quot + MultiPoly(field, p.nvars, {diff: c})
        rem = rem - d.shift(diff, c)
    return quot


def _pseudo_rem(a: MultiPoly, b: MultiPoly, m: int) -> MultiPoly:
    """prem(a, b) in x{m}: lc(b)^(da-db+1) * a reduced to degree < deg_m(b)."""
    db = _deg_in(b, m)
    lcb = _main_var_profile(b, m)[db]
    e = _deg_in(a, m) - db + 1
    r = a
    while not r.is_zero():
        dr = _deg_in(r, m)
        if dr < db:
            break
        prof = _main_var_profile(r, m)
        lcr = prof[dr]
        shift = tuple(dr - db if j == m else 0 for j in range(a.nvars))
        r = r * lcb - b.shift(shift, r.field.one()) * lcr
        e -= 1
    if e > 0:
        r = r * (lcb ** e)
    return r


def _gcd_rec(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Unnormalized gcd of nonzero polynomials."""
    field = p.field
    one = MultiPoly.one(field, p.nvars)
    if p.is_constant() or q.is_constant():
        return one
    vars_used = sorted(set(p.variables_present()) | set(q.variables_present()))
    m = vars_used[0]
    cp, pp_p = _content_and_primitive(p, m)
    cq, pp_q = _content_and_primitive(q, m)
    c = _gcd_rec(cp, cq) if not (cp.is_constant() or cq.is_constant()) else one
    return c * _prs_gcd(pp_p, pp_q, m)


def _content_and_primitive(p: MultiPoly, m: int):
    """Content (gcd of x{m}-coefficients) and primitive part."""
    prof = _main_var_profile(p, m)
    coeffs = [prof[e] for e in sorted(prof)]
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = _gcd_rec(content, c)
    content = _lex_normalize(content)
    if content.is_constant():
        return MultiPoly.one(p.field, p.nvars), _lex_normalize(p)
    return content, exact_divide(p, content)


def _prs_gcd(f: MultiPoly, g: MultiPoly, m: int) -> MultiPoly:
    """Gcd of primitive polynomials via the subresultant remainder sequence."""
    one = MultiPoly.one(f.field, f.nvars)
    if _deg_in(f, m) < _deg_in(g, m):
        f, g = g, f
    if _deg_in(g, m) <= 0:
        # primitive and free of the main variable => scalar
        return one
    a, b = f, g
    gg, h = one, one
    while True:
        delta = _deg_in(a, m) - _deg_in(b, m)
        r = _pseudo_rem(a, b, m)
        if r.is_zero():
            return _content_and_primitive(b, m)[1]
        if _deg_in(r, m) == 0:
            return one
        a, b = b, exact_divide(r, gg * h ** delta)
        gg = _main_var_profile(a, m)[_deg_in(a, m)]
        if delta == 0:
            continue
        h = exact_divide(gg ** delta, h ** (delta - 1)) if delta > 1 else gg


def gcd_multivariate(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A gcd of p and q, scaled so its lex-leading coefficient is 1."""
    if p.field != q.field or p.nvars != q.nvars:
        raise FieldMismatchError("gcd operands live in different rings")
    if p.is_zero():
        return _lex_normalize(q)
    if q.is_zero():
        return _lex_normalize(p)
    return _lex_normalize(_gcd_rec(p, q))


def gcd_many(polys) -> MultiPoly:
    """Iterated gcd of a sequence, skipping zero entries."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise DegenerateInputError("gcd of an all-zero sequence")
    g = _lex_normalize(polys[0])
    for p in polys[1:]:
        if g.is_constant():
            break
        g = gcd_multivariate(g, p)
    return g
