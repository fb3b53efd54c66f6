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

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import DegenerateInputError, FieldMismatchError
from .fields import PrimeField
from .groebner import common_factor, groebner, is_reduced_zero_dim, quotient_dimension
from .linalg import rank, row_reduce
from .poly import MultiPoly, euler_contraction, gradient, homogeneous_degree
from .rand import SeedStream, random_vector

DEFAULT_TRIALS = 5
DEFAULT_RETRIES = 3


def _is_squarefree(F: MultiPoly) -> bool:
    """F and all its partial derivatives have no common factor.

    common_factor decides it on a line; the gcd runs only when F has a
    repeated factor or that line meets the singular points of F.  Exact
    when the characteristic is 0 or exceeds deg F: a repeated factor G^2
    divides F, so G divides every partial; an irreducible G dividing F and
    every partial of F = G*H divides H, because some partial of G is
    nonzero of lower degree.  Every prime field here has p >= MIN_PRIME, far
    above the degree of any form the engine can handle.
    """
    return common_factor([F, *gradient(F)]).is_constant()


class WeightedFunction(namedtuple("WeightedFunction", "factors weights")):
    """A formal product of nonconstant homogeneous factors with nonzero
    rational weights whose product F is squarefree.  That one check stands
    for each factor squarefree and every two coprime: an irreducible g with
    g^2 | F divides one factor twice or two factors once each."""

    __slots__ = ()

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
        W = cls(factors, weights)
        if not _is_squarefree(W.product()):
            raise DegenerateInputError("the product of the factors is not squarefree")
        return W

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


class RationalMapRep(namedtuple("RationalMapRep", "components")):
    """n+1 equal-degree forms representing a rational self-map of P^n."""

    @cached_property
    def _reductions(self) -> dict:
        """Checked reductions modulo primes, by field: each is validated
        once.  Kept in the instance dict, so equality and the hash see only
        the components."""
        return {}

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
        # a homogeneous form keeps its degree mod p unless it vanishes: `of` cannot fail
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
        return RationalMapRep(tuple(polys))


TrialOutcome = namedtuple("TrialOutcome", "seed value zero_dim reduced")


class DegreeReport(namedtuple("DegreeReport", "i value trials stable")):
    """Outcome of one randomized degree computation at one level."""

    __slots__ = ()

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
    hats = [prefix[j] * suffix[j + 1] for j in range(k)]
    mu = [field.from_int(m) for m in W.integer_weights()]
    out = []
    for a in range(nv):
        acc = MultiPoly.zero(field, nv)
        for j in range(k):
            acc = acc + (hats[j] * polys[j].diff(a)).scale(mu[j])
        out.append(acc)
    return out


def weighted_polar_map(W: WeightedFunction) -> RationalMapRep:
    """Polar map of the weighted product: the weighted gradient N, whose
    components share no factor.  Euler gives sum x_a N_a = (sum mu_j d_j) F,
    nonzero as the zero total degree is refused, so an irreducible g dividing
    every N_a divides F, hence one factor F_i = g h only; mod g just
    mu_i Fhat_i dF_i is left, so g | dF_i, g | h dg and g^2 | F_i, which
    WeightedFunction.of refuses.  Over GF(p) a weight divisible by p can leave
    a common factor; map_degree still counts the cleared map, as the factor
    is nonzero on the cone and its zeros on Lambda are base points."""
    if W.total_degree == 0:
        raise DegenerateInputError(
            "total weighted degree is zero: the polar map degenerates to a "
            "Gauss map of a foliation of the same space")
    return RationalMapRep.of(weighted_gradient(W))


def _trial_fiber_count(sub, n, i, field, stream, plain=True):
    """One fiber count: (zero_dim, reduced, value, plain), or None on a
    degenerate draw; plain is whether the plain system gave the value.

    sub is the triple (cone, chart, radial) that map_degree builds: the cone
    span phi_0 .. phi_n, x_0 .. x_n, 1 in x_0 .. x_n, the chart span, the
    same in the fixed affine chart x_n = 1, in x_0 .. x_{n-1}, and whether
    sum x_j phi_j = 0 over the field.  Only the target plane L (n-i forms,
    plus the auxiliary form ell0) and the source plane Lambda (i forms) are
    random: every generator below, and every form off whose zeros a count
    is taken, is a combination of a span, passed as the row of its draws.
    Both systems are counted by one step: the quotient dimension, then the
    form ell, drawn once the first positive quotient appears, then
    is_reduced_zero_dim.  ell has n + 1 coefficients, never all zero; the
    chart system reads the first n.

    With plain set, the count takes the plain system first, in the chart:
    the target forms L(phi) and Lambda's i affine forms.  Being independent
    in the chart coordinates, these eliminate i of them, so the quotient is
    that of the fiber system restricted to Lambda.  No point is lost off
    the chart.
    Let Z be the closure of phi^{-1}(L) away from the base locus; for
    generic L it has dimension i.  Stratify phi(H), H = {x_n = 0}, by the
    fiber dimension k of phi restricted to H: each stratum Y_k has
    dim Y_k + k <= n - 1.  A generic L meets Y_k in dimension
    <= dim Y_k + i - n, so Z meets H in dimension <= i - 1, and a generic
    Lambda of codimension i misses Z meet H.  The quotient A has the points
    of phi^{-1}(L) meet Lambda, and the base points B among them, since phi
    vanishes there.  When A is finite and nonzero, is_reduced_zero_dim
    counts the points of A off B.  The target rows, ell0 and the unit
    vectors at the non-pivot columns of their row reduction are a basis of
    the forms on the target, and every target form vanishes on phi at a
    point of A; so phi vanishes there iff ell0(phi) and the i components at
    those columns, the off rows, do.  A generic Lambda misses Z meet B, of
    dimension at most i - 1, so the count is that of Z meet Lambda, the
    points on ell0(phi) = 0 included, and it is exact at every level.

    When A is infinite (B meets Lambda in a curve or more) or the test
    fails (a base point of Milnor number above 1, say), and when plain is
    clear, the count takes the affine cone over the fiber: in x_0 .. x_n,
    the target forms L(phi), ell0(phi) - 1 and Lambda's i linear forms.
    phi is homogeneous of degree d < p, so each fiber point P off
    ell0(phi) = 0, on the chart or not, gives exactly d points x of the
    cone, the multiples of one by the d-th roots of unity, and the base
    points drop out, since phi(x) != 0.  So x != 0 on the cone, where the d
    roots of unity (d < p) act freely: a reduced cone has d points over each
    fiber point, and is_reduced_zero_dim's count, like the dimension
    reported for a non-reduced cone, is divided by d.  The cone removes
    every point on ell0(phi) = 0.  At i = 0 the rank check keeps ell0
    nonzero on the target point.  At i >= 1 a genuine point of Z meet
    Lambda can lie on ell0(phi) = 0 and be lost, so every positive reduced
    cone count there is audited exactly: i further target forms ell_1 ..
    ell_i are drawn, with L and ell0 spanning every form on the target, and
    for j = 1 .. i the cone with ell0(phi) .. ell_{j-1}(phi) = 0 and
    ell_j(phi) = 1 in place of ell0(phi) = 1 must be the unit ideal.  A
    failed audit is a degenerate draw.  A passed audit draws after the
    count, so the count and every later draw of the stream stay the same.

    At i = 0 with radial set, as for a Gauss map, phi(x) is a hyperplane
    through x, and both systems take the linear form c.x as well (in the
    chart, c.x with x_n = 1), c the target point: L(c) = 0, ell0(c) = 1.
    The cone's ideal is unchanged: L and ell0 span the forms on the target,
    so it is (phi_j - c_j), which holds c.x = sum x_j (c_j - phi_j).  In the
    chart ell0(phi) * c.x lies in (L(phi)), so the local rings at the fiber
    points are unchanged and only base points are cut away, the rest still
    removed by the gcd; a plain system that met a base curve becomes finite.
    """
    width = n + 1
    # generic target plane L of dimension i as n-i linear forms, plus an
    # auxiliary form not vanishing on L; the column (0, .., 0, 1) solves
    # for c with L(c) = 0 and ell0(c) = 1, the target point at i = 0
    target_rows = [random_vector(field, width, stream) for _ in range(n - i)]
    ell0 = random_vector(field, width, stream)
    reduced, pivots = row_reduce([row + [0] for row in target_rows] + [ell0 + [1]], field)
    if len(pivots) != n - i + 1 or pivots[-1] == width:
        return None
    # generic source plane Lambda as i linear forms, independent in the chart
    source_rows = [random_vector(field, width, stream) for _ in range(i)]
    if rank([row[:n] for row in source_rows], field) != i:
        return None
    cone, chart, radial = sub
    # Lambda's forms, and a Gauss map's hyperplane c.x = 0 through the fiber
    # over c, as rows on either span: x_n is 1 in the chart
    hyper = [[row[width] for row in reduced]] if radial and not i else []
    source = [[0] * width + row for row in source_rows + hyper]
    ell = None

    def count(span, rows, off):
        """(dim, points off the common zeros of the off rows) of the quotient
        of the rows, both over span: dim is None when it is infinite, the
        count None when the reducedness test fails."""
        nonlocal ell
        try:
            G = groebner(span, rows)
            dim = quotient_dimension(G)
        except DegenerateInputError:    # infinite, or no nonzero generator
            return None, None
        if not dim:
            return 0, 0
        if ell is None:
            while not any(ell := random_vector(field, width, stream)):
                pass
        return dim, is_reduced_zero_dim(G, ell[:G.nvars], off)

    if plain:
        _, value = count(chart, target_rows + source,
                         [ell0] + [[0] * j + [1] for j in range(width) if j not in pivots])
        if value is not None:
            return (True, True, value, True)

    def cone_rows(zeros, unit):
        """L(phi), zeros(phi), unit(phi) - 1 and Lambda's forms."""
        return target_rows + zeros + [unit + [0] * width + [-1]] + source

    dim, value = count(cone, cone_rows([], ell0), ())
    if dim is None:             # the fiber is not finite
        return (False, False, None, False)
    d = max(c.total_degree() for c in cone[:width])
    if value is None:
        return (True, False, dim // d, False)
    if value and i:
        forms = [ell0] + [random_vector(field, width, stream) for _ in range(i)]
        if rank(target_rows + forms, field) != width or not all(
                groebner(cone, cone_rows(forms[:j], forms[j])).is_unit_ideal()
                for j in range(1, i + 1)):
            return None
    return (True, True, value // d, False)


def map_degree(m: RationalMapRep, i: int, trials: int = DEFAULT_TRIALS,
               seed: int = 0, field=None) -> DegreeReport:
    """deg_i of the map by majority vote over exact randomized fiber counts.

    Each trial draws fiber counts from its own seeded stream, redrawing a
    degenerate, non-reduced or empty fiber up to DEFAULT_RETRIES times, and
    keeps its last draw.  Every count tries the plain system of
    _trial_fiber_count first, until one count of the level leaves it; the
    level's later counts take the cone straight away.  A plain count loses
    no fiber point, and an accepted cone count at i >= 1 has passed the
    audit, so every accepted count is exact on its own and the vote only
    guards against genericity failures; no trial is replayed.  Whether the
    components have zero radial contraction, so that the fibers at level 0
    lie on hyperplanes, is decided once, exactly, over the trial field.
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
    # the cone span phi_0 .. phi_n, x_0 .. x_n, 1 and, but for the 1, the same
    # in the chart x_n = 1, where x_n is 1; no two terms of a form merge
    cone = [*m.components, *(MultiPoly.variable(field, n + 1, a) for a in range(n + 1)),
            MultiPoly.one(field, n + 1)]
    sub = (cone, [MultiPoly(field, n, {exp[:n]: c for exp, c in p.terms.items()})
                  for p in cone[:-1]], euler_contraction(m.components).is_zero())
    master = SeedStream(seed)
    plain, outcomes = True, []
    for _ in range(trials):
        trial_seed = master.child_seed()
        stream = SeedStream(trial_seed)
        zero_dim, reduced, value = False, False, None
        for _ in range(DEFAULT_RETRIES + 1):
            res = _trial_fiber_count(sub, n, i, field, stream, plain)
            if res is None:
                continue            # degenerate draw, redraw
            zero_dim, reduced, value, plain = res
            if reduced and value:
                break
        outcomes.append(TrialOutcome(trial_seed, value, zero_dim, reduced))
    return DegreeReport.from_trials(i, outcomes)


def polar_degrees_profile(W: WeightedFunction, trials: int = DEFAULT_TRIALS,
                          seed: int = 0, field=None) -> tuple:
    """(deg_0, ..., deg_{n-1}) of the weighted polar map."""
    m = weighted_polar_map(W)
    n = m.source_dim
    master = SeedStream(seed)
    return tuple(map_degree(m, i, trials=trials, seed=master.child_seed(), field=field)
                 for i in range(n))
