"""Identity-check plumbing: one light instance per claim."""

import pytest

from conftest import qq
from polardeg import verify
from polardeg.errors import DegenerateInputError
from polardeg.foliations import associated_foliation
from polardeg.polar import WeightedFunction
from polardeg.verify import (SUITES, derive_seed, run_dolgachev_suite,
                             run_resonance_example,
                             run_resonance_singular_check, verify_corollary_deg,
                             verify_gauss_corollary, verify_gauss_theorem,
                             verify_invariance, verify_polar_relation,
                             verify_product_bound)


def test_derive_seed_stable():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


def test_gauss_theorem_triangle_p3():
    fol = associated_foliation(
        WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, 1, 1]))
    out = verify_gauss_theorem(fol, 3, 1, cache={})
    assert out.passed
    assert out.left[0] == sum(out.right) == 3


def test_gauss_theorem_k2_means_one_plus_degree():
    fol = associated_foliation(
        WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, 1, 1]))
    out = verify_gauss_theorem(fol, 2, 1, cache={})
    assert out.passed
    assert out.right == (1, fol.degree)


def test_gauss_corollary_shift():
    fol = associated_foliation(
        WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, 1, 1]))
    out = verify_gauss_corollary(fol, 3, 2, 1, cache={})
    assert out.passed
    with pytest.raises(ValueError):
        verify_gauss_corollary(fol, 3, 1, 1)
    with pytest.raises(ValueError):
        verify_gauss_corollary(fol, 3, 2, 2)   # i - s = 0 is outside the identity


def test_polar_relation_conic_and_triangle():
    conic = WeightedFunction.of([qq("x0^2 + x1^2 + x2^2")], [1])
    out = verify_polar_relation(conic, 0, cache={})
    assert out.passed and out.left == (1,)
    tri = WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, 1, 1])
    out = verify_polar_relation(tri, 1, cache={})
    assert out.passed
    assert out.left[0] == 3 and sorted(out.right) == [1, 2]


def test_corollary_deg_conic():
    conic = WeightedFunction.of([qq("x0^2 + x1^2 + x2^2")], [1])
    for i in (0, 1):
        out = verify_corollary_deg(conic, i, cache={})
        assert out.passed and out.left == (1,)


def test_invariance_same_sign_and_mixed_sign_refused():
    factors = [qq("x0"), qq("x1"), qq("x2")]
    out = verify_invariance(factors, [(2, 5, 11)], cache={})
    assert out.passed and out.label == "ok"
    neg = verify_invariance(factors, [(-1, -2, -3)], cache={})
    assert neg.passed
    with pytest.raises(DegenerateInputError):
        verify_invariance(factors, [(1, -1, 1)])


def test_product_bound_conic_tangent():
    out = verify_product_bound(qq("x0^2 + x1^2 + x2^2"), qq("x0 + x2"), 0, cache={})
    assert out.passed
    assert out.left[0] >= max(out.right)


def test_dolgachev_suite_values():
    outcomes = run_dolgachev_suite()
    assert all(o.passed for o in outcomes)
    values = {o.instance: o.left[0] for o in outcomes}
    assert values == {"conic": 1, "triangle": 1, "tangent-line": 1,
                      "concurrent-lines": 0, "cubic": 4, "transversal-line": 2}


def test_resonance_example_small():
    out = run_resonance_example(2)
    assert out.passed and out.left == (1, 1)
    out = run_resonance_example(3)
    assert out.passed and out.left == (1, 2)


def test_resonance_singular_check():
    out = run_resonance_singular_check(2)
    assert out.passed and out.left == (7,)


def test_corpus_foliations_builds_the_weighted_corpus_once(monkeypatch):
    calls, real = [], verify.corpus_weighted

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(verify, "corpus_weighted", counted)
    assert len(verify.corpus_foliations()) == 4 and len(calls) == 1


def test_memo_reuses_every_report_and_keeps_functions_apart():
    cache = {}
    first = SUITES["dolgachev"](cache=cache)
    entries = dict(cache)
    assert len(entries) == len(first)
    second = SUITES["dolgachev"](cache=cache)
    assert cache == entries and second == first
    # the corollary check memoizes one map_degree and one e_degree report
    conic = WeightedFunction.of([qq("x0^2 + x1^2 + x2^2")], [1])
    verify_corollary_deg(conic, 0, cache=cache)
    fresh = [key for key in cache if key not in entries]
    assert sorted(key[0] for key in fresh) == ["e_degree", "map_degree"]
    assert len(set(fresh)) == 2
