"""Polar maps, weighted polar maps, and the randomized degree protocol."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from _oracles import plane_map_fiber_count
from conftest import ScriptedStream, gfp, qq
from polardeg import foliations, linalg, polar, poly, verify
from polardeg.errors import DegenerateInputError, ResourceLimitError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.groebner import common_factor, groebner, is_reduced_zero_dim
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


def _corpus_products(monkeypatch) -> list:
    """Every weighted product the verification corpus builds."""
    built, real = [], WeightedFunction.of.__func__

    def record(cls, factors, weights):
        built.append(real(cls, factors, weights))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(WeightedFunction, "of", classmethod(record))
        verify.corpus_weighted()
        verify.corpus_foliations()
        for k in range(2, 6):
            verify.resonance_weighted(k, True)
            verify.resonance_weighted(k, False)
            verify.resonance_plane_foliation(k)
        for _, factors, weight_sets in verify.invariance_instances():
            for weights in weight_sets:
                WeightedFunction.of(factors, weights)
    return built


def _random_products(seed: int, count: int) -> list:
    """Seeded products of 2-4 random forms of degree 1-3 on P^2 over QQ."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        factors = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 3)
            terms = [(e, QQ.from_int(rng.randint(-9, 9)))
                     for e in product(range(d + 1), repeat=3) if sum(e) == d]
            factors.append(MultiPoly.from_terms(QQ, 3, terms))
        weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in factors]
        try:
            out.append(WeightedFunction.of(factors, weights))
        except DegenerateInputError:    # a constant or non-squarefree draw
            continue
    return out


def test_weighted_gradient_forms_each_cofactor_once(monkeypatch):
    # five planes of P^3: 5 prefix, 5 suffix and 5 cofactor products, then
    # one product per factor and variable
    W = WeightedFunction.of([qq(t, 4) for t in ("x0", "x1", "x2", "x3",
                                                "x0 + 2*x1 + 3*x2 + 4*x3")],
                            [1, 2, 3, 4, 5])
    expected = polar.weighted_gradient(W)
    products, real = [], MultiPoly.__mul__

    def counted(p, q):
        products.append(1)
        return real(p, q)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert polar.weighted_gradient(W) == expected
    assert len(products) == 5 + 5 + 5 + 5 * 4


def test_a_weighted_gradient_needs_no_check_after_validation(monkeypatch):
    # WeightedFunction.of checks only that the product is squarefree; this is
    # all that weighted_polar_map and logarithmic_form need, so they check
    # nothing more (the proof is in weighted_polar_map's docstring)
    three_lines = [WeightedFunction.of([qq(t) for t in texts], [1, 1, -2])
                   for texts in (("x0", "x1", "x2"), ("x0", "x1", "x0 + x1"))]
    products = _corpus_products(monkeypatch) + three_lines + _random_products(7, 40)
    assert len(products) > 60
    for W in products:
        comps = polar.weighted_gradient(W)
        assert any(not c.is_zero() for c in comps), W
        if W.total_degree != 0:
            assert common_factor(comps).is_constant(), W
            assert weighted_polar_map(W).components == tuple(comps)
    # four planes of P^3, the resonance planes, and the three lines; Euler's
    # relation proves nothing here, and the concurrent lines' form keeps the
    # factor x0 - x1, which foliation_from_form divides out
    zero_total = [W for W in products if W.total_degree == 0]
    assert len(zero_total) >= 7
    for W in zero_total:
        assert any(not c.is_zero() for c in foliations.logarithmic_form(W))


@pytest.mark.parametrize("texts, weights, degrees", [
    (("x0", "x1", "x2"), (SECOND_PRIME, 1, 1), [0, 1]),
    (("x0^2 + x1^2 + x2^2", "x2"), (SECOND_PRIME, 1), [0, 0]),
])
def test_a_weight_divisible_by_p_counts_the_cleared_map(texts, weights, degrees):
    # mod p the first weight vanishes, and the components keep a common
    # factor h; h is nonzero on the cone and its zeros are base points, so
    # the degrees are those of the map with h divided out
    field = GF(SECOND_PRIME)
    W = WeightedFunction.of([gfp(t, prime=SECOND_PRIME) for t in texts], weights)
    m = weighted_polar_map(W)
    h = common_factor(list(m.components))
    assert not h.is_constant()
    cleared = RationalMapRep.of([c if c.is_zero() else poly.exact_divide(c, h)
                                 for c in m.components])
    for i, want in enumerate(degrees):
        got = [map_degree(rep, i, field=field) for rep in (m, cleared)]
        assert [r.value for r in got] == [want, want] and all(r.stable for r in got)


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


def test_validation_builds_no_groebner_basis(monkeypatch):
    # the squarefree check decides on a line, so no S-pair cap trips in it
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", "1")
    W = WeightedFunction.of([qq("x0^3 + x1^3 + x2^3 + x0*x1*x2")], [1])
    assert W.factors == (qq("x0^3 + x1^3 + x2^3 + x0*x1*x2"),)


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


@pytest.mark.parametrize("prime, profile", [(SECOND_PRIME, (1, 2)), (DEFAULT_PRIME, (4, 2))])
def test_base_points_are_decided_over_the_trial_field(prime, profile, monkeypatch):
    # smooth over QQ, but 499501 is a cube root of 1 mod 1000003 and
    # 1498503 = 3 * 499501: there the cubic is a triangle of lines, and its
    # polar map has base points at the three vertices
    W = WeightedFunction.of([qq("x0^3 + x1^3 + x2^3 - 1498503*x0*x1*x2")], [1])
    dropped = _record_base_points(monkeypatch)
    for seed in range(3):
        reports = polar_degrees_profile(W, seed=seed, field=GF(prime))
        assert tuple(r.value for r in reports) == profile
        assert all(r.stable for r in reports)
    # every count is plain; at i = 0 the fiber meets the three vertices, all
    # in the chart, only at the prime where they are base points
    assert set(dropped) == ({(0, 3), (1, 0)} if prime == SECOND_PRIME else {(0, 0), (1, 0)})


def _record_base_points(monkeypatch):
    """Wrap the reducedness test so that each plain count appends (i, the
    number of base points it dropped) to the list returned; a count that
    leaves the plain system fails the test."""
    dropped, level = [], []
    real_count, real_check = polar._trial_fiber_count, polar.is_reduced_zero_dim

    def count(sub, n, i, *args, **kwargs):
        level[:] = [i]
        res = real_count(sub, n, i, *args, **kwargs)
        assert res is None or res[3]
        return res

    def check(G, coeffs, off=()):
        value = real_check(G, coeffs, off)
        if off:
            dropped.append((level[0], polar.quotient_dimension(G) - value))
        return value

    monkeypatch.setattr(polar, "_trial_fiber_count", count)
    monkeypatch.setattr(polar, "is_reduced_zero_dim", check)
    return dropped


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("text, profile, base_points", [
    # the A3 point (1 : 0 : 0) lies off the chart and off a generic line
    ("x2*(x1^2 - x0*x2)", (1, 2), {(0, 0), (1, 0)}),
    # the node (0 : 0 : 1), Milnor number 1, is a reduced point of each fiber
    ("x0^3 + x1^3 - x0*x1*x2", (3, 2), {(0, 1), (1, 0)}),
], ids=["conic-tangent-line", "nodal-cubic"])
def test_plain_counts_drop_the_base_points_by_a_gcd(text, profile, base_points, prime,
                                                    monkeypatch):
    W = WeightedFunction.of([qq(text)], [1])
    dropped = _record_base_points(monkeypatch)
    for seed in range(3):
        reports = polar_degrees_profile(W, seed=seed, field=GF(prime))
        assert tuple(r.value for r in reports) == profile
        assert all(r.stable for r in reports)
    assert set(dropped) == base_points


def test_a_level_with_an_infinite_plain_system_builds_one_plain_basis(Fp, monkeypatch):
    # the base locus of the tetrahedron's polar map is the six coordinate
    # lines: the plain fiber at i = 0 contains the three in the chart
    m = polar_map(qq("x0*x1*x2*x3", 4))
    kinds = []
    real_groebner = polar.groebner

    def capture(polys, rows):
        # the plain system lives in the chart's 3 coordinates, the cone in 4
        kinds.append("plain" if polys[0].nvars == 3 else "saturated")
        return real_groebner(polys, rows)

    monkeypatch.setattr(polar, "groebner", capture)
    for i, value, want in ((0, 1, ["plain"] + ["saturated"] * 5), (1, 3, ["plain"] * 5),
                           (2, 3, ["plain"] * 5)):
        kinds.clear()
        assert map_degree(m, i, field=Fp).value == value
        assert kinds == want, i


def test_a_quotient_past_the_cap_is_refused_by_its_basis(Fp, monkeypatch):
    # the plain fiber of the degree-60 Fermat curve's polar map at i = 0 has
    # 59^2 = 3481 points: its basis refuses, and no reducedness test runs
    m = polar_map(gfp("x0^60 + x1^60 + x2^60"))
    bases, real_groebner = [], polar.groebner

    def capture(polys, rows):
        bases.append(polys[0].nvars)
        return real_groebner(polys, rows)

    def refuse(*args):
        raise AssertionError("no reducedness test runs past the cap")

    monkeypatch.setattr(polar, "groebner", capture)
    monkeypatch.setattr(polar, "is_reduced_zero_dim", refuse)
    with pytest.raises(ResourceLimitError, match=r"quotient cap exceeded \(1024 "):
        map_degree(m, 0, trials=1, field=Fp)
    assert bases == [2]


def test_trial_generators_are_the_dehomogenized_combinations(Fp, monkeypatch):
    n, seed = 2, 5
    # replay the first trial's stream: n - i target rows, ell0, i source rows
    stream = SeedStream(SeedStream(seed).child_seed())
    rows = [random_vector(Fp, n + 1, stream) for _ in range(n + 1)]
    # the plain system lives in the chart coordinates x_0 .. x_{n-1}, the
    # cone in the homogeneous coordinates x_0 .. x_n
    chart = [MultiPoly.variable(Fp, n, a) for a in range(n)] + [MultiPoly.one(Fp, n)]
    coords = [MultiPoly.variable(Fp, n + 1, a) for a in range(n + 1)]
    # the first map has a base point at (1 : 0 : 0), the Fermat cubic's polar
    # map has none; both came through to_field, so the first basis map_degree
    # builds is the first trial's plain fiber system.  The cone of the same
    # draws has the components themselves, ell0(phi) - 1 and Lambda's forms
    cases = []
    for text, values in (("x2*(x1^2 - x0*x2)", (1, 2)), ("x0^3 + x1^3 + x2^3", (4, 2))):
        m = polar_map(qq(text)).to_field(Fp)
        dehom = [c.substitute(chart) for c in m.components]
        cases.append((m, dehom, values))

    def combination(row, polys):
        return sum((p.scale(r) for r, p in zip(row, polys)), MultiPoly.zero(Fp, polys[0].nvars))

    ideals = []
    real_groebner = polar.groebner

    def capture(polys, rows):
        ideals.append([poly.linear_combination(row, polys) for row in rows])
        return real_groebner(polys, rows)

    def refuse(*args):
        raise AssertionError("a trial solves and substitutes nothing")

    monkeypatch.setattr(polar, "groebner", capture)
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    monkeypatch.setattr(poly, "substitute_all", refuse)
    monkeypatch.setattr(linalg, "solve_affine", refuse)
    for m, dehom, values in cases:
        for i, value in enumerate(values):
            target, ell0, source = rows[:n - i], rows[n - i], rows[n - i + 1:]
            ideals.clear()
            assert map_degree(m, i, trials=1, seed=seed, field=Fp).value == value
            stream = SeedStream(SeedStream(seed).child_seed())
            assert polar._trial_fiber_count(_in_the_chart(m)[1], n, i, Fp, stream,
                                            plain=False) == (True, True, value, False)
            # the cone count's audit at i = 1 builds one more basis
            assert len(ideals) == 2 + i
            plain = ([combination(row, dehom) for row in target]
                     + [combination(row, chart) for row in source])
            cone = ([combination(row, m.components) for row in target]
                    + [combination(ell0, m.components) - MultiPoly.one(Fp, n + 1)]
                    + [combination(row, coords) for row in source])
            assert list(ideals[0]) == plain and all(g.nvars == n for g in plain)
            assert list(ideals[1]) == cone and all(g.nvars == n + 1 for g in cone)


def test_a_level_0_count_checks_no_rank(Fp, monkeypatch):
    # at i = 0 Lambda has no rows, so there is no rank to check; at i = 1
    # its one row is checked
    calls, real_rank = [], polar.rank

    def counted(rows, field):
        calls.append(len(rows))
        return real_rank(rows, field)

    monkeypatch.setattr(polar, "rank", counted)
    m = polar_map(qq("x0^3 + x1^3 + x2^3"))
    assert map_degree(m, 0, trials=2, field=Fp).value == 4
    assert calls == []
    assert map_degree(m, 1, trials=2, field=Fp).value == 2
    assert 1 in calls


def test_trial_draws_the_reducedness_form_after_a_positive_count(Fp, monkeypatch):
    passed, streams = [], []
    real_check = polar.is_reduced_zero_dim

    def capture(G, coeffs, off=()):
        passed.append(list(coeffs))
        return real_check(G, coeffs, off)

    def counting(zeros):
        def make(seed):
            streams.append(ScriptedStream(seed, dict.fromkeys(zeros, 0)))
            return streams[-1]
        return make

    monkeypatch.setattr(polar, "is_reduced_zero_dim", capture)
    m = polar_map(qq("x2*(x1^2 - x0*x2)")).to_field(Fp)
    n, seed = m.source_dim, 5
    trial_seed = SeedStream(seed).child_seed()
    linear = (n + 1) ** 2           # n - i target rows, ell0, i source rows
    draws = random_vector(Fp, linear + n + 1, SeedStream(trial_seed))[linear:]
    # an all-zero draw of the form is redrawn, and the redraw is the stream's
    # next n + 1 draws
    for zeros in ((), range(linear, linear + n + 1)):
        for i, value in ((0, 1), (1, 2)):
            passed.clear()
            monkeypatch.setattr(polar, "SeedStream", counting(zeros))
            assert map_degree(m, i, trials=1, seed=seed, field=Fp).value == value
            # the plain system in the chart reads the first n coefficients
            assert passed == [draws[:n]]
            assert streams[-1].calls == linear + len(zeros) + n + 1
    # the cusp (0 : 0 : 1) of this cubic has Milnor number 2: the plain fiber
    # is not reduced there, and the cone count reuses the form, all of it
    passed.clear()
    monkeypatch.setattr(polar, "SeedStream", counting(()))
    m = polar_map(qq("x1^2*x2 - x0^3")).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 2
    assert passed == [draws[:n], draws]
    assert streams[-1].calls == linear + n + 1
    # the three concurrent lines: the plain fiber is the base point (0 : 0 : 1)
    # with Milnor number 4, so the first draw draws the form and falls back
    # to the cone, which reuses it; a cone count of 0 draws nothing after the
    # linear data, in the first draw and in each of its redraws
    passed.clear()
    m = polar_map(qq("x0*x1*(x0 + x1)")).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 0
    assert passed == [draws[:n]]
    assert streams[-1].calls == (polar.DEFAULT_RETRIES + 1) * linear + n + 1
    # the image of this map is the line y0 = y1 and its base points lie off
    # the chart: a plain count of 0 draws nothing after the linear data either
    passed.clear()
    m = RationalMapRep.of([qq("x2^2"), qq("x2^2"), qq("x0^2 + x1^2 + x2^2")]).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 0
    assert passed == []
    assert streams[-1].calls == (polar.DEFAULT_RETRIES + 1) * linear


LOST_POINT_SCRIPT = dict(enumerate([1, 0, DEFAULT_PRIME - 1] + [4, DEFAULT_PRIME - 1, 0]
                                    + [1, 1, DEFAULT_PRIME - 3]))


def _in_the_chart(m):
    """(n, sub): the cone span phi_0 .. phi_n, x_0 .. x_n, 1 on P^n, the
    chart span, the components in the chart x_n = 1, x_0 .. x_{n-1} and 1,
    and whether the radial contraction vanishes, as map_degree builds them."""
    n, F = m.source_dim, m.field
    cone = ([*m.components] + [MultiPoly.variable(F, n + 1, a) for a in range(n + 1)]
            + [MultiPoly.one(F, n + 1)])
    chart = ([MultiPoly(F, n, {e[:n]: c for e, c in comp.terms.items()})
              for comp in m.components]
             + [MultiPoly.variable(F, n, a) for a in range(n)] + [MultiPoly.one(F, n)])
    return n, (cone, chart, poly.euler_contraction(m.components).is_zero())


def _fermat_cubic(Fp):
    return polar_map(qq("x0^3 + x1^3 + x2^3")).to_field(Fp)


def test_audit_redraws_a_count_that_lost_a_fiber_point(Fp):
    # deg_1 of the Fermat cubic's polar map is 2.  The scripted draws put the
    # fiber point (1 : 2 : 1) on ell0(phi) = 0: the target line L is
    # y0 = y2, ell0 = 4*y0 - y1, and Lambda is x0 + x1 = 3*x2, which meets
    # L(phi) = 3*x0^2 - 3*x2^2 in (1 : 2 : 1) and (-1 : 4 : 1).  The
    # saturation counts 1, and the audit refuses that count as a degenerate
    # draw
    n, sub = _in_the_chart(_fermat_cubic(Fp))

    def saturated(stream):
        return polar._trial_fiber_count(sub, n, 1, Fp, stream, plain=False)

    assert saturated(ScriptedStream(3, LOST_POINT_SCRIPT)) is None
    # generic draws pass the audit
    for seed in range(3):
        assert saturated(SeedStream(seed)) == (True, True, 2, False)


def test_count_without_the_saturation_keeps_the_point_on_ell0(Fp):
    # the scripted draws of the audit test above: the plain system in the
    # chart, which has no ell0(phi) = 1, counts the fiber point
    # (1 : 2 : 1) on ell0(phi) = 0 with the other one, and there is nothing
    # to audit
    n, sub = _in_the_chart(_fermat_cubic(Fp))
    assert polar._trial_fiber_count(sub, n, 1, Fp, ScriptedStream(3, LOST_POINT_SCRIPT)) == \
        (True, True, 2, True)


def test_the_cone_count_sees_a_fiber_point_off_the_chart(Fp):
    # the conic's polar map is 2*(x0 : x1 : x2).  The scripted target point
    # L = {y0 = y1, y2 = 0} has the fiber (1 : 1 : 0) on x2 = 0, where
    # ell0 = y0 is nonzero: the cone over the fiber has the one point
    # (1/2, 1/2, 0), which the chart x2 = 1 does not see
    p = DEFAULT_PRIME
    n, sub = _in_the_chart(polar_map(qq("x0^2 + x1^2 + x2^2")).to_field(Fp))
    script = dict(enumerate([1, p - 1, 0] + [0, 0, 1] + [1, 0, 0]))
    assert polar._trial_fiber_count(sub, n, 0, Fp, ScriptedStream(0, script),
                                    plain=False) == (True, True, 1, False)


def _fermat_quartic_section(Fp, seed=1):
    """The Gauss map of the Fermat quartic's foliation of P^4 cut to a
    generic P^3, as the sections benchmark builds it: a map of degree 4
    whose 1-form has zero radial contraction, with a base curve."""
    W = WeightedFunction.of([qq("x0^4 + x1^4 + x2^4 + x3^4", 4)], [1])
    fol = foliations.associated_foliation(W).to_field(Fp)
    return foliations.restrict_to_generic_subspace(fol, 3, seed)


def test_a_gauss_map_counts_its_level_0_fiber_on_the_hyperplane(Fp):
    # e_0^3 = 9.  The base curve meets the chart's plain system L(phi) in a
    # curve; the hyperplane c.x = 0 through the fiber over the target point c
    # cuts it to finitely many base points, which the gcd removes, so the
    # plain system counts the fiber that the cone counts
    n, sub = _in_the_chart(_fermat_quartic_section(Fp))
    assert sub[2]
    assert polar._trial_fiber_count(sub, n, 0, Fp, SeedStream(2)) == (True, True, 9, True)
    assert polar._trial_fiber_count(sub, n, 0, Fp, SeedStream(2), plain=False) == \
        (True, True, 9, False)


def test_the_hyperplane_leaves_the_cone_basis_as_it_was(Fp, monkeypatch):
    # the target forms and ell0 span the forms on the target, so the cone's
    # ideal is (phi_j - c_j), and c.x = sum x_j (c_j - phi_j) lies in it
    m = _fermat_quartic_section(Fp)
    n, sub = _in_the_chart(m)
    stream = SeedStream(2)
    rows = [random_vector(Fp, n + 1, stream) for _ in range(n + 1)]
    reduced, _ = linalg.row_reduce([row + [0] for row in rows[:n]] + [rows[n] + [1]], Fp)
    c = [row[n + 1] for row in reduced]
    assert [sum(a * b for a, b in zip(c, row)) % Fp.modulus for row in rows] == [0] * n + [1]
    coords = [MultiPoly.variable(Fp, n + 1, a) for a in range(n + 1)]
    cone = ([poly.linear_combination(row, m.components) for row in rows[:n]]
            + [poly.linear_combination(rows[n], m.components) - MultiPoly.one(Fp, n + 1)])
    ideals = []
    real_groebner = polar.groebner

    def capture(polys, rows):
        ideals.append([poly.linear_combination(row, polys) for row in rows])
        return real_groebner(polys, rows)

    monkeypatch.setattr(polar, "groebner", capture)
    assert polar._trial_fiber_count(sub, n, 0, Fp, SeedStream(2), plain=False) == \
        (True, True, 9, False)
    assert ideals == [cone + [poly.linear_combination(c, coords)]]
    with_c, without = real_groebner(ideals[0]), real_groebner(cone)
    assert with_c.lead_exps == without.lead_exps and with_c.elems == without.elems


def test_a_count_builds_no_generator_by_polynomial_arithmetic(Fp, monkeypatch):
    # every generator reaches groebner, and every form off whose common zeros
    # the plain count counts reaches is_reduced_zero_dim, as a row of draws
    # over a span that map_degree built: no count does MultiPoly arithmetic
    cases = [(_in_the_chart(_fermat_cubic(Fp)), (4, 2)),
             (_in_the_chart(_fermat_quartic_section(Fp)), (9,))]
    calls = Counter()
    for name in ("__add__", "__sub__", "scale", "__mul__"):
        def counted(self, other, real=getattr(MultiPoly, name), name=name):
            calls[name] += 1
            return real(self, other)
        monkeypatch.setattr(MultiPoly, name, counted)
    for (n, sub), values in cases:
        for i, value in enumerate(values):
            for plain in (True, False):
                calls.clear()
                assert polar._trial_fiber_count(sub, n, i, Fp, SeedStream(2), plain) == \
                    (True, True, value, plain)
                assert not calls, (n, i, plain, calls)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, SECOND_PRIME])
def test_an_off_row_counts_as_the_poly_it_combines(prime):
    # the plain count passes ell0(phi) as the row ell0 over the chart span;
    # the poly linear_combination(ell0, chart), placed in the span as a unit
    # row, gives the same count.  The nodal cubic's polar map has a base
    # point of Milnor number 1 at the node: at i = 0 it is a reduced point
    # of the plain fiber, which the off rows remove (deg_0 = 4 - 1), and at
    # i = 1 a unit row at a non-pivot column joins ell0
    F = GF(prime)
    n, (_, chart, _) = _in_the_chart(polar_map(qq("x0^3 + x1^3 + x0*x1*x2")).to_field(F))
    width = n + 1
    for i, value in ((0, 3), (1, 2)):
        for seed in range(4):
            stream = SeedStream(seed)
            target = [random_vector(F, width, stream) for _ in range(n - i)]
            ell0 = random_vector(F, width, stream)
            source = [[0] * width + random_vector(F, width, stream) for _ in range(i)]
            coeffs = random_vector(F, n, stream)
            _, pivots = linalg.row_reduce(target + [ell0], F)
            units = [[0] * j + [1] for j in range(width) if j not in pivots]
            assert len(units) == i
            G = groebner(chart, target + source)
            H = groebner(chart + [poly.linear_combination(ell0, chart)], target + source)
            assert G.elems == H.elems
            assert is_reduced_zero_dim(G, coeffs, [ell0] + units) == value, (i, seed)
            assert is_reduced_zero_dim(H, coeffs, [[0] * len(chart) + [1]] + units) == value


@pytest.mark.parametrize("texts, weights", [
    (("x0^2 + x1^2 + x2^2", "x2"), (1, "-2/3")),
    (("x0", "x1", "x2"), (1, -1, 1)),
    (("x0*x1 + x2^2", "x0 + x1"), (2, 3)),
])
def test_a_weighted_polar_map_has_a_nonzero_radial_contraction(Fp, monkeypatch, texts,
                                                                weights):
    # sum x_a phi_a = (sum mu_j deg F_j) * F for the product F, which is
    # nonzero mod p: a polar map's fibers keep the plain systems they had
    W = WeightedFunction.of([qq(t) for t in texts], weights)
    m = weighted_polar_map(W).to_field(Fp)
    total = sum(mu * f.total_degree() for mu, f in zip(W.integer_weights(), W.factors))
    assert total % Fp.modulus
    assert poly.euler_contraction(m.components) == W.product().to_field(Fp).scale(total)
    radial = []
    real_count = polar._trial_fiber_count

    def count(sub, *args):
        radial.append(sub[2])
        return real_count(sub, *args)

    monkeypatch.setattr(polar, "_trial_fiber_count", count)
    map_degree(m, 0, trials=1, field=Fp)
    map_degree(_fermat_quartic_section(Fp), 0, trials=1, field=Fp)
    assert radial[0] is False and radial[-1] is True


@pytest.mark.parametrize("trials", [1, 3, 5])
def test_a_saturated_level_audits_every_count_it_accepts(Fp, monkeypatch, trials):
    # every trial of a level kept on the saturation first draws the lost-point
    # script: the audit redraws each of those counts, whatever the vote
    real_count = polar._trial_fiber_count

    def saturated(sub, n, i, field, stream, *_):
        return real_count(sub, n, i, field, stream, plain=False)

    monkeypatch.setattr(polar, "_trial_fiber_count", saturated)
    monkeypatch.setattr(polar, "SeedStream",
                        lambda seed: ScriptedStream(seed, LOST_POINT_SCRIPT))
    rep = map_degree(_fermat_cubic(Fp), 1, trials=trials, field=Fp)
    assert rep.value == 2 and rep.stable
    assert [t.value for t in rep.trials] == [2] * trials


def test_a_degenerate_linear_draw_is_refused(Fp):
    n, sub = _in_the_chart(_fermat_cubic(Fp))
    # L and ell0 all zero: their rank is below n - i + 1
    stream = ScriptedStream(0, dict.fromkeys(range(100), 0))
    assert polar._trial_fiber_count(sub, n, 1, Fp, stream) is None
    assert stream.calls == 2 * (n + 1)
    # Lambda = 5*x2 is no line of the chart
    stream = ScriptedStream(0, {6: 0, 7: 0, 8: 5})
    assert polar._trial_fiber_count(sub, n, 1, Fp, stream) is None
    assert stream.calls == 3 * (n + 1)


def test_an_ell0_in_the_span_of_the_target_forms_is_refused(Fp):
    # L: y0 = 0 and ell0 = 2*y0 have rank 1; with the column that solves for
    # the target point appended they have rank 2, the pivot in that column
    n, sub = _in_the_chart(_fermat_cubic(Fp))
    stream = ScriptedStream(0, dict(enumerate([1, 0, 0] + [2, 0, 0])))
    assert polar._trial_fiber_count(sub, n, 1, Fp, stream) is None
    assert stream.calls == 2 * (n + 1)


def test_an_infinite_saturated_fiber_is_not_zero_dimensional(Fp):
    # L: y0 = y2 pulls back to x0^2 = x1^2, which holds on all of Lambda:
    # x0 = x1, and ell0 = y1 pulls back to x0*x1, which vanishes at one
    # point of it: the saturation keeps the rest of the line
    p = DEFAULT_PRIME
    m = RationalMapRep.of([gfp("x0^2"), gfp("x0*x1"), gfp("x1^2")])
    n, sub = _in_the_chart(m)
    script = dict(enumerate([1, 0, p - 1] + [0, 1, 0] + [1, p - 1, 0]))
    assert polar._trial_fiber_count(sub, n, 1, Fp, ScriptedStream(0, script)) == \
        (False, False, None, False)


def test_a_non_reduced_fiber_is_refused(Fp):
    # the fiber of the point (0 : 1 : 1) is x0^2 = 0, x1^2 = x2^2: two double
    # points, on the plain system and on the saturation alike
    m = RationalMapRep.of([gfp("x0^2"), gfp("x1^2"), gfp("x2^2")])
    n, sub = _in_the_chart(m)
    script = dict(enumerate([1, 0, 0] + [0, 1, DEFAULT_PRIME - 1]))
    assert polar._trial_fiber_count(sub, n, 0, Fp, ScriptedStream(0, script)) == \
        (True, False, 4, False)


def test_an_audit_whose_forms_miss_the_target_redraws(Fp):
    n, sub = _in_the_chart(_fermat_cubic(Fp))
    # draws: the target row, ell0, Lambda's row, ell, then the audit form
    ell0 = dict(enumerate([1, 2, 3], start=n + 1))
    stream = ScriptedStream(0, ell0)
    assert polar._trial_fiber_count(sub, n, 1, Fp, stream, plain=False) == \
        (True, True, 2, False)
    assert stream.calls == 5 * (n + 1)
    # the audit form equal to ell0: L and the forms span two of the three
    # dimensions of forms on the target
    stream = ScriptedStream(0, ell0 | dict(enumerate([1, 2, 3], start=4 * (n + 1))))
    assert polar._trial_fiber_count(sub, n, 1, Fp, stream, plain=False) is None
    assert stream.calls == 5 * (n + 1)


def test_a_trial_of_degenerate_draws_counts_nothing(Fp, monkeypatch):
    streams = []

    def zeros(seed):
        streams.append(ScriptedStream(seed, dict.fromkeys(range(100), 0)))
        return streams[-1]

    monkeypatch.setattr(polar, "SeedStream", zeros)
    rep = map_degree(_fermat_cubic(Fp), 0, trials=1, seed=3, field=Fp)
    trial_seed = SeedStream(3).child_seed()
    assert rep.trials == (polar.TrialOutcome(trial_seed, None, False, False),)
    assert rep.value is None and not rep.stable
    # each draw stops at the rank check of L and ell0: 3 forms on the target
    assert streams[-1].calls == (polar.DEFAULT_RETRIES + 1) * 3 * 3


def test_one_trial_of_the_dense_sextic_in_p3_counts_125():
    """deg_0 = (d - 1)^n for a dense form of degree d on P^n: a 125-point
    fiber, the scale at which the reducedness test's packed rows pay off."""
    field = GF(2**31 - 1)
    rng = random.Random(7)
    terms = [(e, rng.randrange(field.modulus))
             for e in product(range(6, -1, -1), repeat=4) if sum(e) == 6]
    report = map_degree(polar_map(MultiPoly.from_terms(field, 4, terms)), 0,
                        trials=1, seed=5, field=field)
    assert (report.value, report.stable) == (125, True)


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
