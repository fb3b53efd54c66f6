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
from .fields import PrimeField
from .groebner import common_factor, groebner, is_reduced_zero_dim, quotient_dimension
from .linalg import rank, row_reduce
from .poly import (MultiPoly, exact_divide, gradient, homogeneous_degree,
                   linear_combination)
from .rand import SeedStream, random_vector

DEFAULT_TRIALS = 5
DEFAULT_RETRIES = 3


def _is_squarefree(F: MultiPoly) -> bool:
    """F and all its partial derivatives have no common factor.

    common_factor decides it from a Groebner basis of (F, dF/dx0, ...); the
    gcd runs only when F has a repeated factor.  Exact when the
    characteristic is 0 or exceeds deg F: a repeated factor G^2 divides F,
    so G divides every partial; an irreducible G dividing F and every
    partial of F = G*H divides H, because some partial of G is nonzero of
    lower degree.  Every prime field here has p >= MIN_PRIME, far above the
    degree of any form the engine can handle.
    """
    return common_factor([F, *gradient(F)]).is_constant()


@dataclass(frozen=True)
class WeightedFunction:
    """A formal product of squarefree coprime homogeneous factors with
    nonzero rational weights."""

    factors: tuple
    weights: tuple

    @classmethod
    def of(cls, factors, weights) -> "WeightedFunction":
        factors = tuple(factors)
        weights = tuple(Fraction(w) for w in weights)
        if not factors or len(factors) != len(weights):
            raise DegenerateInputError("need equally many factors and weights, at least one")
        if any(w == 0 for w in weights):
            raise DegenerateInputError("weights must be nonzero")
        field, nv = factors[0].field, factors[0].nvars
        for f in factors:
            if f.field != field or f.nvars != nv:
                raise FieldMismatchError("factors live in different rings")
            if homogeneous_degree(f) < 1:
                raise DegenerateInputError("factors must be nonconstant homogeneous forms")
            if not _is_squarefree(f):
                raise DegenerateInputError(f"factor {f} is not squarefree")
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                if not common_factor([factors[a], factors[b]]).is_constant():
                    raise DegenerateInputError(
                        f"factors {factors[a]} and {factors[b]} share a component")
        return cls(factors, weights)

    @property
    def field(self):
        return self.factors[0].field

    @property
    def nvars(self) -> int:
        return self.factors[0].nvars

    @property
    def total_degree(self) -> Fraction:
        return sum((w * f.total_degree() for f, w in zip(self.factors, self.weights)),
                   Fraction(0))

    def integer_weights(self) -> tuple:
        """Weights scaled by the least common denominator."""
        scale = lcm(*(w.denominator for w in self.weights))
        return tuple(int(w * scale) for w in self.weights)

    def product(self) -> MultiPoly:
        out = MultiPoly.one(self.field, self.nvars)
        for f in self.factors:
            out = out * f
        return out


@dataclass(frozen=True)
class RationalMapRep:
    """n+1 equal-degree forms representing a rational self-map of P^n."""

    components: tuple
    # checked reductions modulo primes, by field: each is validated once
    _reductions: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, components) -> "RationalMapRep":
        """Check and wrap the components."""
        components = tuple(components)
        if not components:
            raise DegenerateInputError("map needs components")
        field, nv = components[0].field, components[0].nvars
        if nv < 2:
            raise DegenerateInputError(
                f"a rational map needs a source of dimension at least 1, not P^{nv - 1}")
        if len(components) != nv:
            raise DegenerateInputError(
                f"a self-map of P^{nv - 1} needs {nv} components, got {len(components)}")
        for c in components:
            if c.field != field or c.nvars != nv:
                raise FieldMismatchError("components live in different rings")
        degs = {homogeneous_degree(c) for c in components} - {-1}
        if not degs:
            raise DegenerateInputError("all components are zero")
        if len(degs) > 1:
            raise DegenerateInputError(f"component degrees differ: {sorted(degs)}")
        return cls(components)

    @property
    def field(self):
        return self.components[0].field

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def source_dim(self) -> int:
        return len(self.components) - 1

    def to_field(self, field) -> "RationalMapRep":
        if field == self.field:
            return self
        reduced = self._reductions.get(field)
        if reduced is None:
            reduced = self._reductions[field] = self._reduce(field)
        return reduced

    def _reduce(self, field) -> "RationalMapRep":
        polys = [c.to_field(field) for c in self.components]
        # a homogeneous form keeps its degree mod p unless it vanishes
        if any(p.is_zero() and not c.is_zero() for p, c in zip(polys, self.components)):
            raise DegenerateInputError(
                f"bad reduction: a component vanishes modulo {field.modulus}")
        # a common factor gained mod p changes the map and its degrees; the
        # factor over QQ is computed only when one shows up mod p
        common = common_factor(polys)
        if (not common.is_constant()
                and common.total_degree() > common_factor(self.components).total_degree()):
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
        stable = value is not None and all(t.reduced for t in trials) and len(counts) == 1
        return cls(i, value, trials, stable)


def polar_map(F: MultiPoly) -> RationalMapRep:
    """The rational self-map given by all first partial derivatives."""
    if homogeneous_degree(F) < 1:
        raise DegenerateInputError("polar map needs a nonconstant form")
    return RationalMapRep.of(gradient(F))


def weighted_gradient(W: WeightedFunction) -> list:
    """Coefficients sum_j mu_j * Fhat_j * dF_j/dx_a of the scaled log derivative.

    mu is the weight vector cleared to integers; Fhat_j is the product of the
    other factors.
    """
    field, nv = W.field, W.nvars
    polys = W.factors
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


def _trial_fiber_count(sub, n, i, field, stream, audit=False, plain=True):
    """One fiber count: (zero_dim, reduced, value, plain), or None on a
    degenerate draw; plain is whether the plain system gave the value.

    sub holds the components in the chart, as map_degree builds them.  The
    ring has the variable u as variable 0 and the chart coordinates x_0 ..
    x_{n-1} as variables 1 .. n.  u comes first because the last degrevlex
    variable is the special one (Bayer & Stillman, Invent. Math. 1987): the
    benchmark workloads do 6-43% fewer reduction steps with u first than
    with u last.

    The count runs in the fixed affine chart x_n = 1; only the target plane L
    (n-i forms, plus the auxiliary form ell0) and the source plane Lambda (i
    forms) are random.  No point is lost off the chart.  Let Z be the closure
    of phi^{-1}(L) away from the base locus; for generic L it has dimension
    i.  Stratify phi(H), H = {x_n = 0}, by the fiber dimension k of phi
    restricted to H: each stratum Y_k has dim Y_k + k <= n - 1.  A generic L
    meets Y_k in dimension <= dim Y_k + i - n, so Z meets H in dimension
    <= i - 1.  So a generic Lambda of codimension i misses Z meet H: every
    point of Z meet Lambda lies in the chart, and at i = 0 the finite fiber
    misses H.  Lambda's i affine forms join the generators: being independent
    and affine-linear in the chart coordinates, they eliminate i of them, so
    the quotient is isomorphic to that of the fiber system restricted to
    Lambda, with the same dimension and reducedness.

    With plain set, the count takes the plain system first: the target
    forms, the generator u and Lambda's forms.  Its quotient A has the points
    of phi^{-1}(L) meet Lambda, and the base points B among them, since phi
    vanishes there.  When A is finite and nonzero, the form ell is drawn and
    is_reduced_zero_dim counts the points of A off B.  The target rows,
    ell0 and the unit vectors at the non-pivot columns of their row
    reduction are a basis of the forms on the target, and every target form
    vanishes on phi at a point of A; so phi vanishes there iff ell0(phi) and
    the i components at those columns do.  A generic Lambda misses Z meet B,
    which has dimension at most i - 1, so the count is that of Z meet
    Lambda, the points on ell0(phi) = 0 included, and it is exact at every
    level.  u is zero in A, so ell's coefficient on u is inert there.

    When A is infinite (B meets Lambda in a curve or more) or the test
    fails (a base point of Milnor number above 1, say), and when plain is
    clear, the count takes the saturated system, with u * ell0(phi) - 1 in
    place of u.  It removes B, and with it every point on ell0(phi) = 0.  At
    i = 0 the rank check keeps ell0 nonzero on the target point; at i >= 1 a
    genuine point of Z meet Lambda can lie on ell0(phi) = 0 and be lost (see
    audit).

    ell has n + 1 coefficients, never all zero, the last one on u.  It is
    drawn once the first positive quotient appears, and the saturated count
    reuses it.  With audit set, an accepted saturated count at i >= 1 is
    checked exactly for the points the saturation drops where ell0(phi)
    vanishes: i further target forms ell_1 .. ell_i are drawn, with L and
    ell0 spanning every form on the target, and for j = 1 .. i the system
    with ell0(phi) .. ell_{j-1}(phi) = 0 and u * ell_j(phi) = 1 in place of
    the saturation must be the unit ideal.  A failed check is a degenerate
    draw.
    """
    width = n + 1
    # generic target plane L of dimension i as n-i linear forms, plus an
    # auxiliary form not vanishing on L
    target_rows = [random_vector(field, width, stream) for _ in range(n - i)]
    ell0 = random_vector(field, width, stream)
    _, pivots = row_reduce(target_rows + [ell0], field)
    if len(pivots) != n - i + 1:
        return None
    # generic source plane Lambda as i linear forms, independent in the chart
    source_rows = [random_vector(field, width, stream) for _ in range(i)]
    if rank([row[:n] for row in source_rows], field) != i:
        return None
    one = MultiPoly.one(field, width)
    u = MultiPoly.variable(field, width, 0)
    chart = [MultiPoly.variable(field, width, a + 1) for a in range(n)] + [one]
    target = [linear_combination(row, sub) for row in target_rows]
    source = [linear_combination(row, chart) for row in source_rows]

    def draw_ell():
        while True:
            coeffs = random_vector(field, width, stream)
            if any(coeffs):
                return coeffs[-1:] + coeffs[:-1]

    def saturated(zeros, ell):
        return groebner(target + [linear_combination(row, sub) for row in zeros]
                        + [u * linear_combination(ell, sub) - one] + source)

    coeffs = None
    if plain:
        G = groebner(target + [u] + source)
        try:
            value = quotient_dimension(G)
        except DegenerateInputError:    # B meets Lambda in a curve or more
            value = None
        if value == 0:
            return (True, True, 0, True)
        if value:
            coeffs = draw_ell()
            off = [linear_combination(ell0, sub)] + [sub[j] for j in range(width)
                                                     if j not in pivots]
            value = is_reduced_zero_dim(G, coeffs, off)
            if value is not None:
                return (True, True, value, True)
    G = saturated([], ell0)
    try:
        value = quotient_dimension(G)
    except DegenerateInputError:    # the fiber is not finite
        return (False, False, None, False)
    if not value:
        return (True, True, 0, False)
    if coeffs is None:
        coeffs = draw_ell()
    if is_reduced_zero_dim(G, coeffs) is None:
        return (True, False, value, False)
    if audit and i:
        forms = [ell0] + [random_vector(field, width, stream) for _ in range(i)]
        if rank(target_rows + forms, field) != width:
            return None
        if not all(saturated(forms[:j], forms[j]).is_unit_ideal() for j in range(1, i + 1)):
            return None
    return (True, True, value, False)


def _trial(sub, n, i, field, trial_seed, audit=False, plain=True):
    """A trial: fiber counts from one seeded stream until one is reduced and
    positive, at most DEFAULT_RETRIES redraws; the last draw is kept.
    Returns the outcome and plain, cleared once a count left the plain system."""
    stream = SeedStream(trial_seed)
    zero_dim, reduced, value = False, False, None
    for _ in range(DEFAULT_RETRIES + 1):
        res = _trial_fiber_count(sub, n, i, field, stream, audit, plain)
        if res is None:
            continue            # degenerate draw, redraw
        zero_dim, reduced, value, plain = res
        if reduced and value:
            break
    return TrialOutcome(trial_seed, value, zero_dim, reduced), plain


def map_degree(m: RationalMapRep, i: int, trials: int = DEFAULT_TRIALS,
               seed: int = 0, field=None) -> DegreeReport:
    """deg_i of the map by majority vote over exact randomized fiber counts.

    A trial redraws a degenerate, non-reduced or empty fiber up to
    DEFAULT_RETRIES times and keeps its last draw.  Every fiber count tries
    the plain system of _trial_fiber_count first, until one count of the
    level leaves it; the level's later counts take the saturation straight
    away.  A plain count loses no fiber point, so a level whose counts all
    stayed plain is returned as its trials vote.  Otherwise, when the trials
    of a level i >= 1 disagree, each trial whose count differs from the vote
    (every counted trial when there is no majority) is replayed from its
    seed on the saturation with the audit on, which redraws a count that
    lost a fiber point to the saturation.  Reports whose trials agree run no
    audit.
    """
    n = m.source_dim
    if not 0 <= i <= n - 1:
        raise DegenerateInputError(f"level must satisfy 0 <= i <= {n - 1}, got {i}")
    if trials < 1:
        raise DegenerateInputError(f"need at least one trial, got {trials}")
    if field is None:
        field = m.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("degree computations run over a prime field")
    m = m.to_field(field)
    # the components in the chart x_n = 1, in the ring of u and then the chart
    # coordinates x_0 .. x_{n-1}; they are homogeneous, so no two terms merge
    sub = [MultiPoly(field, n + 1, {(0,) + exp[:n]: c for exp, c in comp.terms.items()})
           for comp in m.components]
    master = SeedStream(seed)
    plain, outcomes = True, []
    for _ in range(trials):
        outcome, plain = _trial(sub, n, i, field, master.child_seed(), plain=plain)
        outcomes.append(outcome)
    report = DegreeReport.from_trials(i, outcomes)
    # at i = 0 the rank check keeps ell0 nonzero on the target point: no audit
    if report.stable or not i or plain:
        return report
    return DegreeReport.from_trials(
        i, [t if t.value == report.value
            else _trial(sub, n, i, field, t.seed, audit=True, plain=False)[0]
            for t in report.trials])


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
