"""Logarithmic 1-forms, the foliations they induce, and Gauss-map degrees.

A foliation of P^n is stored as its Gauss map [a_0 : ... : a_n], the
coefficients of a homogeneous 1-form sum(a_i dx_i) with radial contraction
zero and unit coefficient gcd; its degree is their degree minus one.  The
e-invariants are degrees of the Gauss map of the foliation restricted to a
generic linear subspace, with the subspace drawn over a prime field as the
graph of a random linear map from the first k + 1 coordinates to the others.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegenerateInputError, FieldMismatchError, GenericityError
from .fields import PrimeField
from .groebner import common_factor, groebner, ideal_dimension
from .poly import (MultiPoly, euler_contraction, exact_divide, homogeneous_degree,
                   linear_combination, substitute_all)
from .polar import (DEFAULT_TRIALS, DegreeReport, RationalMapRep,
                    WeightedFunction, map_degree, weighted_gradient)
from .rand import SeedStream, random_vector

_RESTRICT_BUDGET = 5


def integrability_defect(coeffs) -> list:
    """Coefficients of the wedge of the form with its differential.

    For w = sum(a_i dx_i) returns, for every i<j<k, the coefficient of
    dx_i^dx_j^dx_k in w^dw; the form is integrable iff all vanish.
    """
    n = len(coeffs)
    d = [[coeffs[j].diff(i) for j in range(n)] for i in range(n)]
    out = []
    for i, j, k in combinations(range(n), 3):
        c = (coeffs[i] * (d[j][k] - d[k][j])
             - coeffs[j] * (d[i][k] - d[k][i])
             + coeffs[k] * (d[i][j] - d[j][i]))
        out.append(c)
    return out


class LogFoliation(RationalMapRep):
    """A projective foliation, stored as its Gauss map: the components are
    the unit-gcd 1-form coefficients, and the reduction mod p is the map's."""

    @property
    def coeffs(self) -> tuple:
        return self.components

    @property
    def degree(self) -> int:
        """The common coefficient degree minus one."""
        return next(p for p in self.components if not p.is_zero()).total_degree() - 1

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def ambient_dim(self) -> int:
        return self.nvars - 1


def logarithmic_form(W: WeightedFunction) -> tuple:
    """Coefficients of the product of the factors times the log derivative.

    Entry a is sum_j mu_j * Fhat_j * dF_j/dx_a with integer-scaled weights;
    the radial contraction equals the scaled total degree times the product
    of the factors.  It is not zero: sum mu_j dF_j/F_j has residue mu_j along
    F_j = 0 (mod p a weight may zero it; foliation_from_form refuses that).
    """
    return tuple(weighted_gradient(W))


def foliation_from_form(coeffs) -> LogFoliation:
    """Check a 1-form given from outside and clear it with `_clear_form`.

    Requires a nonzero form with one coefficient per variable, all
    homogeneous of one degree.  Zero radial contraction and integrability
    are checked on the cleared form: clearing keeps each and creates
    neither.
    """
    polys = list(coeffs)
    if all(p.is_zero() for p in polys):
        raise DegenerateInputError("zero 1-form")
    nv = polys[0].nvars
    if len(polys) != nv:
        raise FieldMismatchError(
            f"need {nv} coefficients for {nv} variables, got {len(polys)}")
    fol = _clear_form(polys)
    if not euler_contraction(fol.coeffs).is_zero():
        raise DegenerateInputError(
            "radial contraction is nonzero: the form does not descend to projective space")
    if any(not d.is_zero() for d in integrability_defect(fol.coeffs)):
        raise DegenerateInputError("1-form is not integrable")
    return fol


def _clear_form(polys) -> LogFoliation:
    """Divide out the coefficient gcd, make the form monic, read the degree.

    Refuses coefficients that are not homogeneous of one degree.  Checks
    neither integrability nor the contraction; clearing keeps both,
    as (w/g) ^ d(w/g) = (w ^ dw) / g^2.  The gcd is 1 afterwards, so the
    singular set has codimension at least two.
    """
    if len({homogeneous_degree(p) for p in polys} - {-1}) != 1:
        raise DegenerateInputError("coefficient degrees differ")
    field = polys[0].field
    g = common_factor(polys)
    if not g.is_constant():
        polys = [p if p.is_zero() else exact_divide(p, g) for p in polys]
    first = next(p for p in polys if not p.is_zero())
    _, lead = first.leading()
    if lead != field.one():
        inv = field.inv(lead)
        polys = [p.scale(inv) for p in polys]
    return LogFoliation(tuple(polys))


def associated_foliation(W: WeightedFunction) -> LogFoliation:
    """The foliation on P^{n+1} attached to a weighted product on P^n.

    Coefficients are the weighted gradient times the new variable, with last
    entry minus the scaled total degree times the product F of the factors,
    which by Euler is minus the gradient's radial contraction.  It is a
    function times a closed logarithmic form, so integrable, and its
    contraction x_{n+1} F (sum mu_j d_j - total) is 0: no re-check.
    """
    if W.total_degree == 0:
        raise DegenerateInputError(
            "zero total weighted degree: the log derivative already lives on P^n")
    field, nv = W.field, W.nvars
    comps = weighted_gradient(W)
    lifted = [MultiPoly(field, nv + 1,
                        {exp + (1,): c for exp, c in p.terms.items()})
              for p in comps]
    last = MultiPoly(field, nv + 1, {exp + (0,): field.neg(c) for exp, c
                                     in euler_contraction(comps).terms.items()})
    return _clear_form(lifted + [last])


def restrict_to_generic_subspace(fol: LogFoliation, k: int, seed: int) -> LogFoliation:
    """Pull the foliation back to a random P^k embedded as a graph.

    x_j = z_j for j <= k and (x_{k+1}, ..., x_n) = A z for a uniform
    (n - k) x (k + 1) matrix A: only the n - k graph coordinates expand.
    Embeddings of one P^k differ by some g in GL(k+1), which keeps every
    Gauss-map degree; off a proper closed set a P^k is the graph of one A,
    and a nonzero condition of degree delta on A fails with probability at
    most delta/p (Schwartz, JACM 1980), as on a full embedding.  For k >= 2
    a degree drop redraws A; k = 1 gives the line's unique foliation.  The
    pullback commutes with d and the wedge and keeps the radial field: no re-check.
    """
    n = fol.ambient_dim
    if not 1 <= k < n:
        raise DegenerateInputError(f"need 1 <= k < {n}, got {k}")
    field = fol.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("generic restriction runs over a prime field")
    stream = SeedStream(seed)
    polys = fol.coeffs
    failure = "no draw accepted"
    variables = [MultiPoly.variable(field, k + 1, j) for j in range(k + 1)]
    for _ in range(_RESTRICT_BUDGET):
        graph = [random_vector(field, k + 1, stream) for _ in range(n - k)]
        # the coefficient of dz_j is a_j + sum_r A[r][j] a_{k+1+r}, pulled back
        cols = [a + linear_combination(c, polys[k + 1:]) for a, c in zip(polys, zip(*graph))]
        restricted = substitute_all(cols, variables + [linear_combination(r, variables)
                                                       for r in graph])
        if all(p.is_zero() for p in restricted):
            failure = "subspace is invariant"
            continue
        out = _clear_form(restricted)
        if k >= 2 and out.degree != fol.degree:
            failure = f"degree dropped from {fol.degree} to {out.degree}"
            continue
        return out
    raise GenericityError(
        f"generic restriction failed after {_RESTRICT_BUDGET} draws: {failure}")


def e_degree(fol: LogFoliation, k: int, i: int, trials: int = DEFAULT_TRIALS,
             seed: int = 0, field=None) -> DegreeReport:
    """deg_i of the Gauss map of the foliation restricted to a generic P^k."""
    n = fol.ambient_dim
    if not 1 <= k <= n:
        raise DegenerateInputError(f"need 1 <= k <= {n}, got {k}")
    if not 0 <= i <= k - 1:
        raise DegenerateInputError(f"need 0 <= i <= {k - 1}, got {i}")
    if field is not None:
        fol = fol.to_field(field)
    master = SeedStream(seed)
    restrict_seed = master.child_seed()
    degree_seed = master.child_seed()
    if k < n:
        fol = restrict_to_generic_subspace(fol, k, restrict_seed)
    return map_degree(fol, i, trials=trials, seed=degree_seed, field=field)


def singular_scheme_degree_p2(fol: LogFoliation) -> int:
    """Degree of the singular scheme of a plane foliation.

    The coefficients must cut a zero-dimensional projective scheme; the value
    is its Hilbert polynomial, a constant, read from the Hilbert function of
    the leading-monomial ideal at t = L, the sum over the variables of the
    largest exponent among the leading monomials.  Every lcm of leading
    monomials has degree at most L, so the Hilbert-series numerator does
    too, and the Hilbert function is constant from degree L - 2 on.
    """
    if fol.ambient_dim != 2:
        raise DegenerateInputError("singular scheme degree is computed on the plane only")
    G = groebner(fol.coeffs)
    if ideal_dimension(G) > 1:
        raise DegenerateInputError("singular scheme has positive dimension")
    lead = G.lead_exps
    t = sum(map(max, zip(*lead)))
    return sum(1 for a in range(t + 1) for b in range(t - a + 1)
               if not any(all(l <= e for l, e in zip(lm, (a, b, t - a - b)))
                          for lm in lead))


def expected_plane_singular_degree(degree: int) -> int:
    """Chern-number total d^2 + d + 1 for a degree-d plane foliation."""
    return degree * degree + degree + 1
