"""Polar maps, weighted polar maps, and the randomized degree protocol."""

from fractions import Fraction

import pytest

from _oracles import plane_map_fiber_count
from conftest import gfp, qq
from polardeg import linalg, polar, poly
from polardeg.errors import DegenerateInputError, ResourceLimitError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.poly import MultiPoly
from polardeg.polar import (RationalMapRep, WeightedFunction, map_degree,
                            polar_degrees_profile, polar_map, weighted_polar_map)
from polardeg.rand import SeedStream, random_vector

SECOND_PRIME = 1000003


def test_polar_map_examples():
    m = polar_map(qq("x0^2 + x1^2 + x2^2"))
    assert [str(c) for c in m.components] == ["2*x0", "2*x1", "2*x2"]
    m = polar_map(qq("x0*x1*x2"))
    assert [str(c) for c in m.components] == ["x1*x2", "x0*x2", "x0*x1"]
    m = polar_map(qq("x2*(x1^2 - x0*x2)"))
    assert [str(c) for c in m.components] == ["-x2^2", "2*x1*x2", "x1^2 - 2*x0*x2"]
    with pytest.raises(DegenerateInputError):
        polar_map(qq("5"))


def test_polar_map_allows_zero_component():
    m = polar_map(qq("x0*x1*(x0 + x1)"))
    assert m.components[2].is_zero()
    assert [c.total_degree() for c in m.components] == [2, 2, -1]


def test_weighted_polar_map_examples():
    W = WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, 1, 1])
    assert [str(c) for c in weighted_polar_map(W).components] == \
        ["x1*x2", "x0*x2", "x0*x1"]
    W = WeightedFunction.of([qq("x0"), qq("x1"), qq("x2")], [1, -1, 1])
    assert [str(c) for c in weighted_polar_map(W).components] == \
        ["x1*x2", "-x0*x2", "x0*x1"]


def test_weighted_polar_map_degenerate_single_line():
    W = WeightedFunction.of([qq("x0")], [1])
    m = weighted_polar_map(W)
    assert str(m.components[0]) == "1"


def test_weighted_function_validation():
    for field in (QQ, GF(DEFAULT_PRIME)):
        for text in ("x0^2*x1", "(x0 + x1)^2*(x1^2 + x2^2)"):
            with pytest.raises(DegenerateInputError, match="squarefree"):
                WeightedFunction.of([qq(text).to_field(field)], [1])
    with pytest.raises(DegenerateInputError):
        WeightedFunction.of([qq("x0*x1"), qq("x1*x2")], [1, 1])   # share a line
    with pytest.raises(DegenerateInputError):
        WeightedFunction.of([qq("x0")], [0])
    with pytest.raises(DegenerateInputError):
        WeightedFunction.of([qq("2")], [1])


def test_pair_cap_reaches_the_validation_bases(monkeypatch):
    # the squarefree check of this cubic reduces 9 S-pairs
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", "8")
    with pytest.raises(ResourceLimitError, match=r"S-pair cap exceeded \(8\)"):
        WeightedFunction.of([qq("x0^3 + x1^3 + x2^3 + x0*x1*x2")], [1])


def test_weighted_total_degree_recorded_exactly():
    W = WeightedFunction.of([qq("x0^2 + x1^2 + x2^2"), qq("x2")], [1, "-2/3"])
    assert W.total_degree == Fraction(4, 3)
    assert W.integer_weights() == (3, -2)


def test_map_degree_smooth_conic(Fp):
    m = polar_map(qq("x0^2 + x1^2 + x2^2"))
    assert map_degree(m, 0, field=Fp).value == 1
    assert map_degree(m, 1, field=Fp).value == 1


def test_map_degree_nondominant_is_zero(Fp):
    m = polar_map(qq("x0*x1*(x0 + x1)"))
    rep = map_degree(m, 0, field=Fp)
    assert rep.value == 0 and rep.stable


def test_map_degree_fermat_quartic_with_oracle(Fp):
    m = polar_map(qq("x0^4 + x1^4 + x2^4"))
    rep = map_degree(m, 0, field=Fp)
    assert rep.value == 9 and rep.stable
    oracle = plane_map_fiber_count(
        [p.to_field(GF(SECOND_PRIME)) for p in m.components], SECOND_PRIME, seed=3)
    assert oracle == rep.value == 9


def test_map_degree_level_bounds(Fp):
    m = polar_map(qq("x0^2 + x1^2 + x2^2"))
    with pytest.raises(ValueError):
        map_degree(m, 2, field=Fp)
    with pytest.raises(DegenerateInputError):
        map_degree(m, 0, field=QQ)


def test_map_degree_deterministic(Fp):
    m = polar_map(qq("x0^3 + x1^3 + x2^3"))
    a = map_degree(m, 0, seed=123, field=Fp)
    b = map_degree(m, 0, seed=123, field=Fp)
    assert a == b
    c = map_degree(m, 0, seed=124, field=Fp)
    assert [t.seed for t in a.trials] != [t.seed for t in c.trials]


def test_weight_rescaling_leaves_reports_unchanged(Fp):
    factors = [qq("x2"), qq("x1^2 - x0*x2")]
    base = WeightedFunction.of(factors, [1, 2])
    scaled = WeightedFunction.of(factors, [3, 6])
    for i in (0, 1):
        a = map_degree(weighted_polar_map(base), i, seed=7, field=Fp)
        b = map_degree(weighted_polar_map(scaled), i, seed=7, field=Fp)
        assert a == b


def test_profile_examples(Fp):
    conic = polar_degrees_profile(WeightedFunction.of([qq("x0^2 + x1^2 + x2^2")], [1]),
                                  field=Fp)
    assert [r.value for r in conic] == [1, 1]
    cubic = polar_degrees_profile(WeightedFunction.of([qq("x0^3 + x1^3 + x2^3")], [1]),
                                  field=Fp)
    assert [r.value for r in cubic] == [4, 2]
    assert all(r.stable for r in cubic)


def test_profile_rejects_zero_total_degree(Fp):
    W = WeightedFunction.of([qq("x0", 2), qq("x1", 2)], [1, -1])
    assert W.total_degree == 0
    with pytest.raises(DegenerateInputError):
        polar_degrees_profile(W, field=Fp)


def test_conic_transversal_pinned_regression(Fp):
    # engine-pinned: the polar degree of a conic with a transversal line is 2
    rep = map_degree(polar_map(qq("x2*(x0^2 + x1^2 + x2^2)")), 0, field=Fp)
    assert rep.value == 2 and rep.stable


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("text, nvars, profile", [
    ("x2*(x1^2 - x0*x2)", 3, (1, 2)),       # conic plus tangent line: homaloidal
    ("x0*x1*x2", 3, (1, 2)),
    ("x0*x1*x2*x3", 4, (1, 3, 3)),
])
def test_chart_hyperplane_as_a_component(text, nvars, profile, prime):
    # x_n = 0 is a component of the curve, so the fixed chart x_n = 1 cuts
    # through its polar map's base locus; no fiber point may be lost
    W = WeightedFunction.of([qq(text, nvars)], [1])
    for seed in range(6):
        reports = polar_degrees_profile(W, seed=seed, field=GF(prime))
        assert tuple(r.value for r in reports) == profile
        assert all(t.reduced for r in reports for t in r.trials)


def test_trial_generators_are_the_dehomogenized_combinations(Fp, monkeypatch):
    m = polar_map(qq("x2*(x1^2 - x0*x2)")).to_field(Fp)
    comps, n, seed = m.components, m.source_dim, 5
    # replay the first trial's stream: n - i target rows, ell0, i source rows
    stream = SeedStream(SeedStream(seed).child_seed())
    rows = [random_vector(Fp, n + 1, stream) for _ in range(n + 1)]
    chart = [MultiPoly.variable(Fp, n + 1, a) for a in range(n)] + [MultiPoly.one(Fp, n + 1)]
    dehom = [c.substitute(chart) for c in comps]

    def combination(row, polys):
        return sum((p.scale(r) for r, p in zip(row, polys)), MultiPoly.zero(Fp, n + 1))

    u = MultiPoly.variable(Fp, n + 1, n)
    ideals = []
    real_groebner = polar.groebner

    def capture(polys):
        ideals.append(polys)
        return real_groebner(polys)

    def refuse(*args):
        raise AssertionError("a trial solves and substitutes nothing")

    monkeypatch.setattr(polar, "groebner", capture)
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    monkeypatch.setattr(poly, "substitute_all", refuse)
    monkeypatch.setattr(linalg, "solve_affine", refuse)
    for i, value in ((0, 1), (1, 2)):
        ideals.clear()
        assert map_degree(m, i, trials=1, seed=seed, field=Fp).value == value
        target, ell0, source = rows[:n - i], rows[n - i], rows[n - i + 1:]
        expected = ([combination(row, dehom) for row in target]
                    + [u * combination(ell0, dehom) - MultiPoly.one(Fp, n + 1)]
                    + [combination(row, chart) for row in source])
        assert list(ideals[0]) == expected
        assert all(g.nvars == n + 1 for g in ideals[0])


def test_rational_map_rep_validation():
    with pytest.raises(DegenerateInputError):
        RationalMapRep.of([qq("x0"), qq("x1^2"), qq("x2")])
    with pytest.raises(DegenerateInputError):
        RationalMapRep.of([qq("0"), qq("0"), qq("0")])
    with pytest.raises(DegenerateInputError):
        RationalMapRep.of([qq("x0", 3), qq("x1", 3)])
    m = RationalMapRep.of([qq("x1", 2), qq("0", 2)])
    assert m.source_dim == 1


def test_reduction_refuses_only_a_common_factor_gained_mod_p():
    p = GF(1000003)
    # the partials of x2^2*(x0 + x1) share x2 over QQ already: a good reduction
    m = polar_map(qq("x0*x2^2 + x1*x2^2"))
    assert m.to_field(p) is m.to_field(p)       # validated once per prime
    with pytest.raises(DegenerateInputError, match="common factor"):
        polar_map(qq("x0*x2^2 + x1*x2^2 + 1000003*x0^3")).to_field(p)
