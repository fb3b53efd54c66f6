"""Acceptance gate: every exit criterion, each at two primes, exact equality.

The degree computations for criteria 1-7 run once per prime through a shared
module fixture; criterion 9 asserts that both primes produced identical
values.  Each criterion prints one pass/fail line (run pytest -s to see
them).
"""

import random

import pytest

from _oracles import normal_form, plane_map_fiber_count, plane_map_line_preimage_count
from conftest import qq, random_poly
from polardeg.fields import GF, QQ
from polardeg.foliations import integrability_defect
from polardeg.groebner import groebner, quotient_dimension
from polardeg.parse import parse_poly
from polardeg.poly import MultiPoly, euler_contraction, gradient
from polardeg.polar import WeightedFunction, map_degree, polar_map, weighted_polar_map
from polardeg.verify import SUITES, corpus_foliations

PRIMARY_PRIME = 2147483647
SECOND_PRIME = 1000003
PRIMES = (PRIMARY_PRIME, SECOND_PRIME)


def _compute_all(prime):
    field = GF(prime)
    cache = {}
    results = {name: suite(field=field, cache=cache) for name, suite in SUITES.items()}
    profiles = {}
    for d in (2, 3, 4):
        W = WeightedFunction.of([qq(f"x0^{d} + x1^{d} + x2^{d}")], [1])
        m = weighted_polar_map(W)
        profiles[d] = tuple(map_degree(m, i, seed=100 + i, field=field).value
                            for i in (0, 1))
    results["smooth-profiles"] = profiles
    return results


@pytest.fixture(scope="module")
def runs():
    return {p: _compute_all(p) for p in PRIMES}


def _assert_outcomes(outcomes, label):
    bad = [o for o in outcomes if not o.passed]
    for o in bad:
        print(o.line())
    assert not bad, f"{label}: {len(bad)} of {len(outcomes)} checks failed"


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_1_dolgachev_list(runs):
    for p in PRIMES:
        outcomes = runs[p]["dolgachev"]
        _assert_outcomes(outcomes, f"dolgachev @ {p}")
        values = {o.instance: o.left[0] for o in outcomes}
        assert values == {"conic": 1, "triangle": 1, "tangent-line": 1,
                          "concurrent-lines": 0, "cubic": 4, "transversal-line": 2}
    _report(1, True, "plane classification degrees and controls, both primes")


def test_criterion_2_smooth_profiles(runs):
    for p in PRIMES:
        for d in (2, 3, 4):
            assert runs[p]["smooth-profiles"][d] == ((d - 1) ** 2, d - 1)
    # independent oracle: resultant fiber count and line-preimage count
    field = GF(SECOND_PRIME)
    for d in (2, 3, 4):
        comps = [c.to_field(field)
                 for c in gradient(qq(f"x0^{d} + x1^{d} + x2^{d}"))]
        assert plane_map_fiber_count(comps, SECOND_PRIME, seed=3) == (d - 1) ** 2
        assert plane_map_line_preimage_count(comps, SECOND_PRIME, seed=3) == d - 1
    _report(2, True, "Fermat profiles ((d-1)^2, d-1) match the independent oracles")


def test_criterion_3_invariance(runs):
    for p in PRIMES:
        outcomes = runs[p]["invariance"]
        assert len(outcomes) == 5
        _assert_outcomes(outcomes, f"invariance @ {p}")
    _report(3, True, "profiles invariant across positive weight vectors, 5 instances")


def test_criterion_4_gauss_identities(runs):
    for p in PRIMES:
        outcomes = runs[p]["gauss-theorem"]
        assert len(outcomes) >= 15
        _assert_outcomes(outcomes, f"gauss @ {p}")
    _report(4, True, "e_i^k = e_0^{k-i} + e_0^{k-i+1} on the corpus, with shifts")


def test_criterion_5_polar_relation_and_corollary(runs):
    for p in PRIMES:
        _assert_outcomes(runs[p]["polar-relation"], f"polar-relation @ {p}")
        _assert_outcomes(runs[p]["corollary-deg"], f"corollary-deg @ {p}")
    _report(5, True, "polar/Gauss degree identities for conic, triangle, cubic, quartic")


def test_criterion_6_resonance(runs):
    for p in PRIMES:
        outcomes = runs[p]["resonance"]
        _assert_outcomes(outcomes, f"resonance @ {p}")
        example = {o.instance: o.left for o in outcomes
                   if o.claim == "resonance-example"}
        assert example == {"2 concurrent lines plus one": (1, 1),
                           "3 concurrent lines plus one": (1, 2),
                           "4 concurrent lines plus one": (1, 3)}
        sing = [o for o in outcomes if o.claim == "resonance-singular-degree"]
        assert sorted(o.left[0] for o in sing) == [7, 13]
    _report(6, True, "resonant weights homaloidal, weight one gives k-1, "
                     "singular totals k^2+k+1")


def test_criterion_7_product_bound(runs):
    for p in PRIMES:
        outcomes = runs[p]["product-bound"]
        assert len(outcomes) == 10
        _assert_outcomes(outcomes, f"product-bound @ {p}")
    _report(7, True, "product degree bound on 5 coprime pairs at every level")


def test_criterion_8_property_suites(Fp):
    rng = random.Random(81)
    # Euler identity on random homogeneous polynomials
    for _ in range(10):
        d = rng.randrange(1, 5)
        items = []
        for _ in range(4):
            e0 = rng.randrange(d + 1)
            e1 = rng.randrange(d + 1 - e0)
            items.append(((e0, e1, d - e0 - e1), QQ.from_int(rng.randrange(1, 7))))
        F = MultiPoly.from_terms(QQ, 3, items)
        if F.is_zero():
            continue
        assert euler_contraction(gradient(F)) == F.scale(QQ.from_int(d))
    # constructed foliations: zero contraction and integrability (<= 4 vars)
    for name, fol in corpus_foliations().items():
        assert euler_contraction(fol.coeffs).is_zero()
        if fol.nvars <= 4:
            assert all(w.is_zero() for w in integrability_defect(fol.coeffs))
    # Buchberger criterion on a small instance
    G = groebner([qq("x0^2 - x1*x2"), qq("x0*x1 - x2^2")])
    for a in range(len(G.basis)):
        for b in range(a + 1, len(G.basis)):
            pa, pb = G.basis[a], G.basis[b]
            (ea, ca), (eb, cb) = pa.leading(), pb.leading()
            lcm = tuple(max(x, y) for x, y in zip(ea, eb))
            s = pa.shift(tuple(l - e for l, e in zip(lcm, ea)), QQ.inv(ca)) \
                - pb.shift(tuple(l - e for l, e in zip(lcm, eb)), QQ.inv(cb))
            assert normal_form(s, G).is_zero()
    # x1 = x0^2, x0 = x1^2: four points over the closure
    I = [parse_poly("x0^2 - x1", 2, Fp), parse_poly("x1^2 - x0", 2, Fp)]
    assert quotient_dimension(groebner(I)) == 4
    # determinism of reports
    m = polar_map(qq("x0^3 + x1^3 + x2^3"))
    assert map_degree(m, 0, seed=5, field=Fp) == map_degree(m, 0, seed=5, field=Fp)
    # weight rescaling leaves reports identical
    factors = [qq("x0"), qq("x1"), qq("x2")]
    a = map_degree(weighted_polar_map(WeightedFunction.of(factors, [1, 1, 1])),
                   0, seed=5, field=Fp)
    b = map_degree(weighted_polar_map(WeightedFunction.of(factors, [2, 2, 2])),
                   0, seed=5, field=Fp)
    assert a == b
    _report(8, True, "Euler, integrability, Buchberger, quotient dimension, "
                     "determinism, rescaling")


def _value_signature(results):
    sig = {}
    for key in SUITES:
        for o in results[key]:
            sig[(o.claim, o.instance)] = (o.left, o.right)
    sig["smooth-profiles"] = results["smooth-profiles"]
    return sig


def test_criterion_9_second_prime_agreement(runs):
    first = _value_signature(runs[PRIMARY_PRIME])
    second = _value_signature(runs[SECOND_PRIME])
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"prime disagreement at {key}"
    _report(9, True, f"all degree values identical at {PRIMARY_PRIME} and {SECOND_PRIME}")
