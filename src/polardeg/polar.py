"""Polar maps of weighted homogeneous products and their fiber-count degrees.

deg_i of a rational self-map of projective n-space is the number of points in
the closure of the preimage of a generic i-dimensional linear subspace met
with a generic (n-i)-dimensional one.  "Generic" is realized as uniformly
random over a large prime field: each trial draws fresh linear data, counts
the fiber exactly through a Groebner basis, accepts only reduced
zero-dimensional outcomes, and the report carries a majority vote with
stability flags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

from .errors import DegenerateInputError, FieldMismatchError
from .fields import PrimeField, RationalField
from .groebner import (DEGREVLEX, Ideal, common_factor, groebner,
                       is_reduced_zero_dim, is_zero_dimensional,
                       quotient_dimension)
from .linalg import rank, solve_affine
from .poly import HomogeneousForm, MultiPoly, exact_divide, gradient
from .rand import SeedStream, random_vector

DEFAULT_TRIALS = 5
DEFAULT_RETRIES = 3


def _is_squarefree(form: HomogeneousForm) -> bool:
    """F and all its partial derivatives have no common factor.

    common_factor decides it from a Groebner basis of (F, dF/dx0, ...); the
    gcd runs only when F has a repeated factor.  Exact when the
    characteristic is 0 or exceeds deg F: a repeated factor G^2 divides F,
    so G divides every partial; an irreducible G dividing F and every
    partial of F = G*H divides H, because some partial of G is nonzero of
    lower degree.  Every prime field here has p >= MIN_PRIME, far above the
    degree of any form the engine can handle.
    """
    return common_factor([form.poly, *gradient(form.poly)]).is_constant()


@dataclass(frozen=True)
class WeightedFunction:
    """A formal product of squarefree coprime homogeneous factors with
    nonzero rational weights."""

    factors: tuple
    weights: tuple

    @classmethod
    def of(cls, factors, weights) -> "WeightedFunction":
        factors = tuple(f if isinstance(f, HomogeneousForm) else HomogeneousForm.of(f)
                        for f in factors)
        weights = tuple(Fraction(w) for w in weights)
        if not factors or len(factors) != len(weights):
            raise DegenerateInputError("need equally many factors and weights, at least one")
        if any(w == 0 for w in weights):
            raise DegenerateInputError("weights must be nonzero")
        field, nv = factors[0].poly.field, factors[0].poly.nvars
        for f in factors:
            if f.poly.field != field or f.poly.nvars != nv:
                raise FieldMismatchError("factors live in different rings")
            if f.degree < 1:
                raise DegenerateInputError("factors must be nonconstant homogeneous forms")
            if not _is_squarefree(f):
                raise DegenerateInputError(f"factor {f.poly} is not squarefree")
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                if not common_factor([factors[a].poly, factors[b].poly]).is_constant():
                    raise DegenerateInputError(
                        f"factors {factors[a].poly} and {factors[b].poly} share a component")
        return cls(factors, weights)

    @property
    def field(self):
        return self.factors[0].poly.field

    @property
    def nvars(self) -> int:
        return self.factors[0].poly.nvars

    @property
    def total_degree(self) -> Fraction:
        return sum((w * f.degree for f, w in zip(self.factors, self.weights)),
                   Fraction(0))

    def integer_weights(self) -> tuple:
        """Weights scaled by the least common denominator."""
        scale = lcm(*(w.denominator for w in self.weights))
        return tuple(int(w * scale) for w in self.weights)

    def product(self) -> MultiPoly:
        out = MultiPoly.one(self.field, self.nvars)
        for f in self.factors:
            out = out * f.poly
        return out


@dataclass(frozen=True)
class RationalMapRep:
    """n+1 equal-degree forms representing a rational self-map of P^n."""

    components: tuple
    # checked reductions modulo primes, by field: each is validated once
    _reductions: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, components) -> "RationalMapRep":
        components = tuple(c if isinstance(c, HomogeneousForm) else HomogeneousForm.of(c)
                           for c in components)
        if not components:
            raise DegenerateInputError("map needs components")
        field, nv = components[0].poly.field, components[0].poly.nvars
        if len(components) != nv:
            raise DegenerateInputError(
                f"a self-map of P^{nv - 1} needs {nv} components, got {len(components)}")
        for c in components:
            if c.poly.field != field or c.poly.nvars != nv:
                raise FieldMismatchError("components live in different rings")
        degs = {c.degree for c in components if not c.is_zero()}
        if not degs:
            raise DegenerateInputError("all components are zero")
        if len(degs) > 1:
            raise DegenerateInputError(f"component degrees differ: {sorted(degs)}")
        return cls(components)

    @property
    def field(self):
        return self.components[0].poly.field

    @property
    def nvars(self) -> int:
        return self.components[0].poly.nvars

    @property
    def source_dim(self) -> int:
        return len(self.components) - 1

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

    def polys(self):
        return [c.poly for c in self.components]

    def to_field(self, field) -> "RationalMapRep":
        if field == self.field:
            return self
        reduced = self._reductions.get(field)
        if reduced is None:
            reduced = self._reductions[field] = self._reduce(field)
        return reduced

    def _reduce(self, field) -> "RationalMapRep":
        polys = [c.poly.to_field(field) for c in self.components]
        # a homogeneous form keeps its degree mod p unless it vanishes
        if any(p.is_zero() and not c.is_zero() for p, c in zip(polys, self.components)):
            raise DegenerateInputError(
                f"bad reduction: a component vanishes modulo {field.modulus}")
        # a common factor gained mod p changes the map and its degrees; the
        # factor over QQ is computed only when one shows up mod p
        common = common_factor(polys)
        if (not common.is_constant()
                and common.total_degree() > common_factor(self.polys()).total_degree()):
            raise DegenerateInputError(
                f"bad reduction: the components gain a common factor {common} "
                f"modulo {field.modulus}")
        return RationalMapRep.of(polys)


@dataclass(frozen=True)
class TrialOutcome:
    seed: int
    value: int | None
    zero_dim: bool
    reduced: bool


@dataclass(frozen=True)
class DegreeReport:
    """Outcome of one randomized degree computation at one level."""

    i: int
    value: int | None
    trials: tuple
    stable: bool

    @classmethod
    def from_trials(cls, i: int, trials) -> "DegreeReport":
        trials = tuple(trials)
        counts = Counter(t.value for t in trials if t.reduced and t.value is not None)
        value = None
        if counts:
            best, hits = counts.most_common(1)[0]
            if 2 * hits > len(trials):
                value = best
        stable = bool(trials) and all(t.reduced for t in trials) and len(counts) == 1
        return cls(i, value, trials, stable)


def polar_map(F: HomogeneousForm | MultiPoly) -> RationalMapRep:
    """The rational self-map given by all first partial derivatives."""
    form = F if isinstance(F, HomogeneousForm) else HomogeneousForm.of(F)
    if form.degree < 1:
        raise DegenerateInputError("polar map needs a nonconstant form")
    return RationalMapRep.of([form.poly.diff(v) for v in range(form.poly.nvars)])


def weighted_gradient(W: WeightedFunction) -> list:
    """Coefficients sum_j mu_j * Fhat_j * dF_j/dx_a of the scaled log derivative.

    mu is the weight vector cleared to integers; Fhat_j is the product of the
    other factors.
    """
    field, nv = W.field, W.nvars
    polys = [f.poly for f in W.factors]
    k = len(polys)
    prefix = [MultiPoly.one(field, nv)]
    for p in polys:
        prefix.append(prefix[-1] * p)
    suffix = [MultiPoly.one(field, nv)]
    for p in reversed(polys):
        suffix.append(suffix[-1] * p)
    suffix.reverse()
    mu = [field.from_int(m) for m in W.integer_weights()]
    out = []
    for a in range(nv):
        acc = MultiPoly.zero(field, nv)
        for j in range(k):
            hat = prefix[j] * suffix[j + 1]
            acc = acc + (hat * polys[j].diff(a)).scale(mu[j])
        out.append(acc)
    return out


def weighted_polar_map(W: WeightedFunction) -> RationalMapRep:
    """Polar map of the weighted product, common polynomial factor removed."""
    comps = weighted_gradient(W)
    if all(c.is_zero() for c in comps):
        raise DegenerateInputError("weights annihilate the differential")
    g = common_factor(comps)
    if not g.is_constant():
        comps = [c if c.is_zero() else exact_divide(c, g) for c in comps]
    return RationalMapRep.of(comps)


def _trial_fiber_count(comps, n, i, field, stream):
    """One fiber count: (zero_dim, reduced, value), or None on a degenerate draw.

    The count runs in the fixed affine chart x_n = 1; only the target plane
    L (n-i forms, plus the auxiliary form ell0) and the source plane Lambda
    (i forms) are random.  No point is lost off the chart.  Let Z be the
    closure of phi^{-1}(L) away from the base locus; for generic L it has
    dimension i.  Stratify phi(H), H = {x_n = 0}, by the fiber dimension k
    of phi restricted to H: each stratum Y_k has dim Y_k + k <= n - 1.  A
    generic L meets Y_k in dimension <= dim Y_k + i - n, so Z meets H in
    dimension <= i - 1; base points are removed by the saturation
    u * ell0(phi) = 1.  So a generic Lambda of codimension i misses Z meet
    H: every point of Z meet Lambda lies in the chart, and at i = 0 the
    finite fiber misses H.
    """
    width = n + 1
    # generic target plane L of dimension i as n-i linear forms, plus an
    # auxiliary form not vanishing on L
    target_rows = [random_vector(field, width, stream) for _ in range(n - i)]
    ell0 = random_vector(field, width, stream)
    if rank(target_rows + [ell0], field) != n - i + 1:
        return None
    nz = n - i + 1              # free chart coordinates plus u (last)
    if i == 0:
        # components are homogeneous: setting x_n = 1 merges no two terms
        sub = [MultiPoly(field, nz, {exp[:n] + (0,): c for exp, c in comp.terms.items()})
               for comp in comps]
    else:
        # generic source plane Lambda as i linear forms, solved in the chart
        source_rows = [random_vector(field, width, stream) for _ in range(i)]
        solved = solve_affine([row[:n] for row in source_rows],
                              [field.neg(row[n]) for row in source_rows], field)
        if solved is None:
            return None
        pivots, exprs = solved
        free = [a for a in range(n) if a not in pivots]
        zpos = {a: t for t, a in enumerate(free)}
        images = [None] * n + [MultiPoly.one(field, nz)]
        for a in free:
            images[a] = MultiPoly.variable(field, nz, zpos[a])
        for (const, coeffs), a in zip(exprs, pivots):
            terms = {}
            if const != field.zero():
                terms[(0,) * nz] = const
            for c, coef in coeffs.items():
                exp = tuple(1 if t == zpos[c] else 0 for t in range(nz))
                terms[exp] = field.neg(coef)
            images[a] = MultiPoly(field, nz, terms)
        sub = [c.substitute(images) for c in comps]
    gens = []
    for row in target_rows:
        g = MultiPoly.zero(field, nz)
        for coef, c in zip(row, sub):
            if coef != field.zero():
                g = g + c.scale(coef)
        gens.append(g)
    aux = MultiPoly.zero(field, nz)
    for coef, c in zip(ell0, sub):
        if coef != field.zero():
            aux = aux + c.scale(coef)
    u = MultiPoly.variable(field, nz, nz - 1)
    gens.append(u * aux - MultiPoly.one(field, nz))
    gens = [g for g in gens if not g.is_zero()]
    G = groebner(Ideal.of(gens), DEGREVLEX)
    if not is_zero_dimensional(G):
        return (False, False, None)
    value = quotient_dimension(G)
    return (True, is_reduced_zero_dim(G, stream), value)


def map_degree(m: RationalMapRep, i: int, trials: int = DEFAULT_TRIALS,
               seed: int = 0, field=None) -> DegreeReport:
    """deg_i of the map by majority vote over exact randomized fiber counts."""
    n = m.source_dim
    if not 0 <= i <= n - 1:
        raise DegenerateInputError(f"level must satisfy 0 <= i <= {n - 1}, got {i}")
    if field is None:
        field = m.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("degree computations run over a prime field")
    if isinstance(m.field, RationalField):
        m = m.to_field(field)
    elif m.field != field:
        raise FieldMismatchError("map is over a different prime field")
    comps = m.polys()
    master = SeedStream(seed)
    outcomes = []
    for _ in range(trials):
        trial_seed = master.child_seed()
        stream = SeedStream(trial_seed)
        zero_dim, reduced, value = False, False, None
        for _ in range(DEFAULT_RETRIES + 1):
            res = _trial_fiber_count(comps, n, i, field, stream)
            if res is None:
                continue            # degenerate linear draw, redraw
            zero_dim, reduced, value = res
            if reduced:
                break
        outcomes.append(TrialOutcome(trial_seed, value, zero_dim, reduced))
    return DegreeReport.from_trials(i, outcomes)


def polar_degrees_profile(W: WeightedFunction, trials: int = DEFAULT_TRIALS,
                          seed: int = 0, field=None) -> tuple:
    """(deg_0, ..., deg_{n-1}) of the weighted polar map."""
    if W.total_degree == 0:
        raise DegenerateInputError(
            "total weighted degree is zero: the polar map degenerates to a "
            "Gauss map of a foliation of the same space")
    m = weighted_polar_map(W)
    n = m.source_dim
    master = SeedStream(seed)
    return tuple(map_degree(m, i, trials=trials, seed=master.child_seed(), field=field)
                 for i in range(n))
