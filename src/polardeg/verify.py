"""Executable identity checks over a small explicit corpus.

Every headline identity of the degree theory becomes a check that computes
both sides independently (separate derived seeds) and compares exact values.
Corpus instances use small explicit rational coefficients and are lifted to
the working prime field; outcomes are reproducible bit for bit from
(corpus, seed, prime).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .errors import DegenerateInputError
from .fields import DEFAULT_PRIME, GF, QQ
from .foliations import (LogFoliation, associated_foliation, e_degree,
                         expected_plane_singular_degree, foliation_from_form,
                         logarithmic_form, singular_scheme_degree_p2)
from .parse import parse_poly
from .poly import MultiPoly
from .polar import (DEFAULT_TRIALS, WeightedFunction, map_degree, polar_map,
                    weighted_polar_map)

_MASK = (1 << 63) - 1
_MIX = 0x9E3779B97F4A7C15


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic seed mixing, stable across platforms and runs."""
    h = base & _MASK
    for j, p in enumerate(parts, start=1):
        h = (h ^ ((p + j * _MIX) & _MASK)) * 0xBF58476D1CE4E5B9 & _MASK
        h ^= h >> 29
    return h


class VerificationOutcome(namedtuple(
        "VerificationOutcome", "claim instance left right passed reports label",
        defaults=((), "ok"))):
    __slots__ = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tag = "" if self.label == "ok" else f" [{self.label}]"
        return f"{verdict} {self.claim}: {self.instance}: {list(self.left)} vs {list(self.right)}{tag}"


def _memo(fn, obj, *args, trials, seed, field, cache):
    """fn(obj, *args, ...) through the memo dict cache; None memoizes nothing.

    The key holds fn's name, so map_degree and e_degree entries never meet,
    and obj itself: a map or foliation hashes and compares by its
    polys, not by its cached reductions.
    Callers pass fn as looked up in this module at call time, so a wrapper
    swapped onto the module attribute sees every call that is computed.
    """
    field = GF(DEFAULT_PRIME) if field is None else field
    cache = {} if cache is None else cache
    key = (fn.__name__, obj, *args, trials, seed, field.modulus)
    if key not in cache:
        cache[key] = fn(obj, *args, trials=trials, seed=seed, field=field)
    return cache[key]


def _outcome(claim, instance, reports, left, right, holds=operator.eq) -> VerificationOutcome:
    """The check passes iff every report is stable and holds(left, right).

    The label is "ok", or "unstable" when some report is not stable.
    """
    left, right = tuple(left), tuple(right)
    ok = all(r.stable for r in reports)
    return VerificationOutcome(claim, instance, left, right, ok and holds(left, right),
                               tuple(reports), "ok" if ok else "unstable")


def _is_sum(left, right) -> bool:
    return left[0] == sum(right)


def verify_gauss_theorem(fol: LogFoliation, k: int, i: int,
                         trials: int = DEFAULT_TRIALS, seed: int = 0,
                         field=None, cache=None,
                         instance: str = "") -> VerificationOutcome:
    """e_i^k = e_0^{k-i} + e_0^{k-i+1}, both sides computed independently."""
    if not (2 <= k <= fol.ambient_dim and 1 <= i <= k - 1):
        raise DegenerateInputError(f"inadmissible pair (k, i) = ({k}, {i})")
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    lhs = memo(e_degree, fol, k, i, seed=derive_seed(seed, 1, k, i))
    r1 = memo(e_degree, fol, k - i, 0, seed=derive_seed(seed, 2, k - i, 0))
    r2 = memo(e_degree, fol, k - i + 1, 0, seed=derive_seed(seed, 2, k - i + 1, 0))
    return _outcome("gauss-degree-identity", instance or f"(k,i)=({k},{i})",
                    (lhs, r1, r2), (lhs.value,), (r1.value, r2.value), _is_sum)


def verify_gauss_corollary(fol: LogFoliation, k: int, i: int, s: int,
                           trials: int = DEFAULT_TRIALS, seed: int = 0,
                           field=None, cache=None,
                           instance: str = "") -> VerificationOutcome:
    """e_i^k = e_{i-s}^{k-s} for s >= 1, s+2 <= k, 2 <= i <= k-1, i-s >= 1.

    The last constraint keeps both pairs inside the main identity's range;
    for i = s the two sides genuinely differ whenever e_0^{k-i+1} is nonzero.
    """
    if not (s >= 1 and s + 2 <= k <= fol.ambient_dim and 2 <= i <= k - 1 and i - s >= 1):
        raise DegenerateInputError(f"inadmissible triple (k, i, s) = ({k}, {i}, {s})")
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    lhs = memo(e_degree, fol, k, i, seed=derive_seed(seed, 1, k, i))
    rhs = memo(e_degree, fol, k - s, i - s, seed=derive_seed(seed, 1, k - s, i - s))
    return _outcome("gauss-degree-shift", instance or f"(k,i,s)=({k},{i},{s})",
                    (lhs, rhs), (lhs.value,), (rhs.value,))


def verify_polar_relation(W: WeightedFunction, i: int,
                          trials: int = DEFAULT_TRIALS, seed: int = 0,
                          field=None, cache=None,
                          instance: str = "") -> VerificationOutcome:
    """Gauss degree of the attached foliation = deg_i + deg_{i-1} of the polar map."""
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    fol = associated_foliation(W)
    lhs = memo(e_degree, fol, fol.ambient_dim, i, seed=derive_seed(seed, 3, i))
    m = weighted_polar_map(W)
    rhs = [memo(map_degree, m, j, seed=derive_seed(seed, 4, j)) for j in (i, i - 1) if j >= 0]
    right = [r.value for r in rhs] + [0] * (2 - len(rhs))     # deg_{-1} = 0
    return _outcome("polar-gauss-relation", instance or f"i={i}",
                    (lhs, *rhs), (lhs.value,), right, _is_sum)


def verify_corollary_deg(W: WeightedFunction, i: int,
                         trials: int = DEFAULT_TRIALS, seed: int = 0,
                         field=None, cache=None,
                         instance: str = "") -> VerificationOutcome:
    """deg_i of the polar map = e_0^{n+1-i} of the attached foliation."""
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    n = W.nvars - 1
    fol = associated_foliation(W)
    lhs = memo(map_degree, weighted_polar_map(W), i, seed=derive_seed(seed, 4, i))
    rhs = memo(e_degree, fol, n + 1 - i, 0, seed=derive_seed(seed, 2, n + 1 - i, 0))
    return _outcome("polar-degree-via-foliation", instance or f"i={i}",
                    (lhs, rhs), (lhs.value,), (rhs.value,))


def _same_sign(weights) -> bool:
    return all(w > 0 for w in weights) or all(w < 0 for w in weights)


def verify_invariance(factors, weight_sets, trials: int = DEFAULT_TRIALS,
                      seed: int = 0, field=None, cache=None,
                      instance: str = "") -> VerificationOutcome:
    """Degree profiles agree across same-sign weight vectors and weight one.

    Mixed-sign weight vectors fall outside the verified hypothesis: refused.
    """
    weight_sets = [tuple(Fraction(w) for w in ws) for ws in weight_sets]
    if not all(_same_sign(ws) for ws in weight_sets):
        raise DegenerateInputError("mixed-sign weights: invariance hypothesis unverified")
    memo = partial(_memo, trials=trials, field=field, cache=cache)

    def profile(ws):
        m = weighted_polar_map(WeightedFunction.of(factors, ws))
        return [memo(map_degree, m, i, seed=derive_seed(seed, 4, i))
                for i in range(m.source_dim)]

    ones = profile((Fraction(1),) * len(tuple(factors)))
    others = [r for ws in weight_sets for r in profile(ws)]
    return _outcome("profile-weight-invariance", instance or "weighted product",
                    ones + others, [r.value for r in ones], [r.value for r in others],
                    lambda ref, rest: rest == ref * len(weight_sets))


def verify_product_bound(F1, F2, i: int, trials: int = DEFAULT_TRIALS,
                         seed: int = 0, field=None, cache=None,
                         instance: str = "") -> VerificationOutcome:
    """deg_i of the polar of a coprime product dominates both factors' deg_i."""
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    lhs = memo(map_degree, polar_map(F1 * F2), i, seed=derive_seed(seed, 5, i))
    r1 = memo(map_degree, polar_map(F1), i, seed=derive_seed(seed, 6, i))
    r2 = memo(map_degree, polar_map(F2), i, seed=derive_seed(seed, 7, i))
    return _outcome("product-degree-bound", instance or f"i={i}",
                    (lhs, r1, r2), (lhs.value,), (r1.value, r2.value),
                    lambda left, right: left[0] >= max(right))


# -- corpus ------------------------------------------------------------------

def _qq(text: str, nvars: int = 3) -> MultiPoly:
    return parse_poly(text, nvars, QQ)


def corpus_curves() -> dict:
    """Plane curves used across the suites, over the rationals."""
    return {
        "conic": _qq("x0^2 + x1^2 + x2^2"),
        "triangle": _qq("x0*x1*x2"),
        "tangent-line": _qq("x2*(x1^2 - x0*x2)"),
        "transversal-line": _qq("x2*(x0^2 + x1^2 + x2^2)"),
        "concurrent-lines": _qq("x0*x1*(x0 + x1)"),
        "cubic": _qq("x0^3 + x1^3 + x2^3"),
        "quartic": _qq("x0^4 + x1^4 + x2^4"),
    }


def corpus_weighted() -> dict:
    """Weighted products for the polar-identity suites."""
    return {
        "conic": WeightedFunction.of([_qq("x0^2 + x1^2 + x2^2")], [1]),
        "triangle": WeightedFunction.of([_qq("x0"), _qq("x1"), _qq("x2")], [1, 1, 1]),
        "cubic": WeightedFunction.of([_qq("x0^3 + x1^3 + x2^3")], [1]),
        "quartic": WeightedFunction.of([_qq("x0^4 + x1^4 + x2^4")], [1]),
    }


def corpus_foliations() -> dict:
    """Foliations on P^3 and P^4 used by the Gauss-identity suite."""
    W = corpus_weighted()
    return {
        "conic-attached": associated_foliation(W["conic"]),
        "triangle-attached": associated_foliation(W["triangle"]),
        "four-planes-p3": foliation_from_form(logarithmic_form(WeightedFunction.of(
            [parse_poly(s, 4, QQ) for s in ("x0", "x1", "x2", "x0+x1+x2+x3")],
            [1, 1, 1, -3]))),
        "tetrahedron-attached": associated_foliation(WeightedFunction.of(
            [parse_poly(s, 4, QQ) for s in ("x0", "x1", "x2", "x3")],
            [1, 1, 1, 1])),
    }


def _pencil_lines(k: int) -> list:
    """k distinct lines through one point: x0, x1, x0 + j*x1."""
    lines = [_qq("x0"), _qq("x1")]
    for j in range(1, k - 1):
        lines.append(_qq(f"x0 + {j}*x1"))
    return lines


def resonance_weighted(k: int, resonant: bool) -> WeightedFunction:
    """k concurrent lines plus a line off the pencil point.

    With resonant=True the pencil weights sum to zero; otherwise all weights
    are one.
    """
    if k < 2:
        raise DegenerateInputError(f"need at least two concurrent lines, got {k}")
    factors = _pencil_lines(k) + [_qq("x2")]
    if resonant:
        weights = [1] * (k - 1) + [-(k - 1), 1]
    else:
        weights = [1] * (k + 1)
    return WeightedFunction.of(factors, weights)


def resonance_plane_foliation(k: int) -> LogFoliation:
    """The plane foliation attached to the resonant pencil arrangement.

    Adds a generic fourth direction with opposite weight so the total
    weighted degree vanishes and the log derivative lives on the plane.
    """
    factors = _pencil_lines(k) + [_qq("x2"), _qq("x0 + 7*x1 + 3*x2")]
    weights = [1] * (k - 1) + [-(k - 1), 1, -1]
    W = WeightedFunction.of(factors, weights)
    return foliation_from_form(logarithmic_form(W))


def run_resonance_example(k: int, seed: int = 0, trials: int = DEFAULT_TRIALS,
                          field=None, cache=None) -> VerificationOutcome:
    """Resonant pencil weights give a birational polar map; weight one gives k-1."""
    memo = partial(_memo, trials=trials, field=field, cache=cache)
    res = memo(map_degree, weighted_polar_map(resonance_weighted(k, True)), 0,
               seed=derive_seed(seed, 8, k))
    ones = memo(map_degree, weighted_polar_map(resonance_weighted(k, False)), 0,
                seed=derive_seed(seed, 9, k))
    return _outcome("resonance-example", f"{k} concurrent lines plus one",
                    (res, ones), (res.value, ones.value), (1, k - 1))


def run_resonance_singular_check(k: int) -> VerificationOutcome:
    """Total singular-scheme degree of the example foliation is k^2 + k + 1."""
    fol = resonance_plane_foliation(k)
    value = singular_scheme_degree_p2(fol)
    expected = expected_plane_singular_degree(fol.degree)
    return _outcome("resonance-singular-degree",
                    f"degree-{fol.degree} plane foliation from {k}+2 lines",
                    (), (value,), (k * k + k + 1,),
                    lambda left, right: fol.degree == k and left == right == (expected,))


def _suite(checks):
    """Suite from a generator checks(seed, opts, **extra) of outcomes.

    opts holds the trials, field and cache keywords of the verify functions;
    the checks of one run share a cache, fresh unless given.
    """
    def run(trials: int = DEFAULT_TRIALS, seed: int = 0, field=None, cache=None,
            **extra) -> list:
        opts = dict(trials=trials, field=field, cache={} if cache is None else cache)
        return list(checks(seed, opts, **extra))
    # not functools.wraps: the signature shown must be run's, not checks'
    run.__name__, run.__doc__ = checks.__name__, checks.__doc__
    return run


@_suite
def run_dolgachev_suite(seed, opts):
    """Topological polar degree across the plane classification and controls."""
    curves = corpus_curves()
    expected = {
        "conic": 1,
        "triangle": 1,
        "tangent-line": 1,
        "concurrent-lines": 0,
        "cubic": 4,
        # engine-pinned regression: a conic plus a transversal line is not
        # homaloidal, its polar map has topological degree 2
        "transversal-line": 2,
    }
    for idx, (name, value) in enumerate(expected.items()):
        rep = _memo(map_degree, polar_map(curves[name]), 0,
                    seed=derive_seed(seed, 10, idx), **opts)
        claim = "homaloidal-classification" if value == 1 else "homaloidal-control"
        yield _outcome(claim, name, (rep,), (rep.value,), (value,))


@_suite
def suite_gauss(seed, opts):
    """All admissible Gauss identities with k <= 4 on the foliation corpus."""
    for name, fol in corpus_foliations().items():
        n = fol.ambient_dim
        for k in range(2, min(n, 4) + 1):
            for i in range(1, k):
                yield verify_gauss_theorem(fol, k, i, seed=seed,
                                           instance=f"{name}, (k,i)=({k},{i})", **opts)
        for k, i, s in ((3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)):
            if k <= n:
                yield verify_gauss_corollary(fol, k, i, s, seed=seed,
                                             instance=f"{name}, (k,i,s)=({k},{i},{s})",
                                             **opts)


@_suite
def _weighted_corpus_suite(seed, opts, check):
    """check(W, i) at every level i of every weighted product in the corpus."""
    for name, W in corpus_weighted().items():
        for i in range(W.nvars - 1):
            yield check(W, i, seed=seed, instance=f"{name}, i={i}", **opts)


suite_polar_relation = partial(_weighted_corpus_suite, check=verify_polar_relation)
suite_corollary_deg = partial(_weighted_corpus_suite, check=verify_corollary_deg)


def invariance_instances() -> list:
    """(name, factors, weight sets) triples for the invariance suite."""
    return [
        ("triangle",
         [_qq("x0"), _qq("x1"), _qq("x2")],
         [(2, 5, 11), (1, 2, 3)]),
        ("conic-tangent-line",
         [_qq("x2"), _qq("x1^2 - x0*x2")],
         [(3, 1), (2, 7)]),
        ("conic-transversal-line",
         [_qq("x2"), _qq("x0^2 + x1^2 + x2^2")],
         [(2, 3), (5, 1)]),
        ("cubic-conic",
         [_qq("x0^3 + x1^3 + x2^3"), _qq("x0^2 + x1^2 + x2^2")],
         [(2, 3), (1, 4)]),
        ("four-lines",
         [_qq("x0"), _qq("x1"), _qq("x2"), _qq("x0 + x1 + x2")],
         [(1, 2, 3, 4), (7, 5, 3, 2)]),
    ]


@_suite
def suite_invariance(seed, opts):
    for idx, (name, factors, weight_sets) in enumerate(invariance_instances()):
        yield verify_invariance(factors, weight_sets, seed=derive_seed(seed, 11, idx),
                                instance=name, **opts)


def product_pairs() -> list:
    return [
        ("conic, tangent line", _qq("x0^2 + x1^2 + x2^2"), _qq("x0 + x2")),
        ("cubic, line", _qq("x0^3 + x1^3 + x2^3"), _qq("x0 + 2*x1 + 5*x2")),
        ("conic, conic", _qq("x0^2 + x1^2 + x2^2"), _qq("x0^2 + 2*x1^2 + 3*x2^2")),
        ("triangle, line", _qq("x0*x1*x2"), _qq("x0 + x1 + x2")),
        ("quartic, line", _qq("x0^4 + x1^4 + x2^4"), _qq("x0 + 3*x1 + 2*x2")),
    ]


@_suite
def suite_product_bound(seed, opts):
    for idx, (name, f1, f2) in enumerate(product_pairs()):
        for i in range(f1.nvars - 1):
            yield verify_product_bound(f1, f2, i, seed=derive_seed(seed, 12, idx),
                                       instance=f"{name}, i={i}", **opts)


@_suite
def suite_resonance(seed, opts, ks=(2, 3, 4)):
    for k in ks:
        yield run_resonance_example(k, seed=seed, **opts)
    for k in ks:
        if k <= 3:
            yield run_resonance_singular_check(k)


SUITES = {
    "dolgachev": run_dolgachev_suite,
    "gauss-theorem": suite_gauss,
    "polar-relation": suite_polar_relation,
    "corollary-deg": suite_corollary_deg,
    "invariance": suite_invariance,
    "product-bound": suite_product_bound,
    "resonance": suite_resonance,
}
