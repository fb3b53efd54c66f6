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
    u = MultiPoly.variable(Fp, 4, 0)
    kinds = []
    real_groebner = polar.groebner

    def capture(polys):
        kinds.append("plain" if u in polys else "saturated")
        return real_groebner(polys)

    monkeypatch.setattr(polar, "groebner", capture)
    for i, value, want in ((0, 1, ["plain"] + ["saturated"] * 5), (1, 3, ["plain"] * 5),
                           (2, 3, ["plain"] * 5)):
        kinds.clear()
        assert map_degree(m, i, field=Fp).value == value
        assert kinds == want, i


def test_trial_generators_are_the_dehomogenized_combinations(Fp, monkeypatch):
    n, seed = 2, 5
    # replay the first trial's stream: n - i target rows, ell0, i source rows
    stream = SeedStream(SeedStream(seed).child_seed())
    rows = [random_vector(Fp, n + 1, stream) for _ in range(n + 1)]
    # u is variable 0, the chart coordinates x_0 .. x_{n-1} are variables 1 .. n
    u = MultiPoly.variable(Fp, n + 1, 0)
    chart = ([MultiPoly.variable(Fp, n + 1, a + 1) for a in range(n)]
             + [MultiPoly.one(Fp, n + 1)])
    # the first map has a base point at (1 : 0 : 0), the Fermat cubic's polar
    # map has none; both came through to_field, so the first basis map_degree
    # builds is the first trial's plain fiber system, with u in it.  The
    # saturated system of the same draws has u * ell0(phi) - 1 there
    cases = []
    for text, values in (("x2*(x1^2 - x0*x2)", (1, 2)), ("x0^3 + x1^3 + x2^3", (4, 2))):
        m = polar_map(qq(text)).to_field(Fp)
        dehom = [c.substitute(chart) for c in m.components]
        cases.append((m, dehom, values))

    def combination(row, polys):
        return sum((p.scale(r) for r, p in zip(row, polys)), MultiPoly.zero(Fp, n + 1))

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
    for m, dehom, values in cases:
        for i, value in enumerate(values):
            target, ell0, source = rows[:n - i], rows[n - i], rows[n - i + 1:]
            saturation = u * combination(ell0, dehom) - MultiPoly.one(Fp, n + 1)
            ideals.clear()
            assert map_degree(m, i, trials=1, seed=seed, field=Fp).value == value
            stream = SeedStream(SeedStream(seed).child_seed())
            assert polar._trial_fiber_count(dehom, n, i, Fp, stream, plain=False) == \
                (True, True, value, False)
            for middle, polys in ((u, ideals[0]), (saturation, ideals[-1])):
                expected = ([combination(row, dehom) for row in target] + [middle]
                            + [combination(row, chart) for row in source])
                assert list(polys) == expected
                assert all(g.nvars == n + 1 for g in polys)


class ScriptedStream(SeedStream):
    """A SeedStream that counts its below() calls and answers those in
    `script`, {call number: field element}, without drawing."""

    def __init__(self, seed, script=None):
        super().__init__(seed)
        self.script, self.calls = script or {}, 0

    def below(self, m):
        k, self.calls = self.calls, self.calls + 1
        return self.script[k] if k in self.script else super().below(m)


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
            # the last draw goes on u, variable 0
            assert passed == [draws[-1:] + draws[:-1]]
            assert streams[-1].calls == linear + len(zeros) + n + 1
    # the cusp (0 : 0 : 1) of this cubic has Milnor number 2: the plain fiber
    # is not reduced there, and the saturated count reuses the form
    passed.clear()
    monkeypatch.setattr(polar, "SeedStream", counting(()))
    m = polar_map(qq("x1^2*x2 - x0^3")).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 2
    assert passed == [draws[-1:] + draws[:-1]] * 2
    assert streams[-1].calls == linear + n + 1
    # the three concurrent lines: the plain fiber is the base point (0 : 0 : 1)
    # with Milnor number 4, so the first draw draws the form and falls back
    # to the saturation, which reuses it; a saturated count of 0 draws nothing
    # after the linear data, in the first draw and in each of its redraws
    passed.clear()
    m = polar_map(qq("x0*x1*(x0 + x1)")).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 0
    assert passed == [draws[-1:] + draws[:-1]]
    assert streams[-1].calls == (polar.DEFAULT_RETRIES + 1) * linear + n + 1
    # the image of this map is the line y0 = y1 and its base points lie off
    # the chart: a plain count of 0 draws nothing after the linear data either
    passed.clear()
    m = RationalMapRep.of([qq("x2^2"), qq("x2^2"), qq("x0^2 + x1^2 + x2^2")]).to_field(Fp)
    assert map_degree(m, 0, trials=1, seed=seed, field=Fp).value == 0
    assert passed == []
    assert streams[-1].calls == (polar.DEFAULT_RETRIES + 1) * linear


def test_audit_redraws_a_count_that_lost_a_fiber_point(Fp):
    # deg_1 of the Fermat cubic's polar map is 2.  The scripted draws put the
    # fiber point (1 : 2 : 1) on ell0(phi) = 0: the target line L is
    # y0 = y2, ell0 = 4*y0 - y1, and Lambda is x0 + x1 = 3*x2, which meets
    # L(phi) = 3*x0^2 - 3*x2^2 in (1 : 2 : 1) and (-1 : 4 : 1)
    m = polar_map(qq("x0^3 + x1^3 + x2^3")).to_field(Fp)
    n, p = m.source_dim, DEFAULT_PRIME
    sub = [MultiPoly(Fp, n + 1, {(0,) + e[:n]: c for e, c in comp.terms.items()})
           for comp in m.components]
    script = dict(enumerate([1, 0, p - 1] + [4, p - 1, 0] + [1, 1, p - 3]))

    def saturated(stream, audit=False):
        return polar._trial_fiber_count(sub, n, 1, Fp, stream, audit, plain=False)

    assert saturated(ScriptedStream(3, script)) == (True, True, 1, False)
    assert saturated(ScriptedStream(3, script), audit=True) is None
    # generic draws pass the audit
    for seed in range(3):
        assert saturated(SeedStream(seed), audit=True) == (True, True, 2, False)


def test_count_without_the_saturation_keeps_the_point_on_ell0(Fp):
    # the scripted draws of the audit test above: the plain system, with the
    # generator u in place of the saturation, counts the fiber point
    # (1 : 2 : 1) on ell0(phi) = 0 with the other one, and the audit has
    # nothing to check
    m = polar_map(qq("x0^3 + x1^3 + x2^3")).to_field(Fp)
    n, p = m.source_dim, DEFAULT_PRIME
    sub = [MultiPoly(Fp, n + 1, {(0,) + e[:n]: c for e, c in comp.terms.items()})
           for comp in m.components]
    script = dict(enumerate([1, 0, p - 1] + [4, p - 1, 0] + [1, 1, p - 3]))
    for audit in (False, True):
        assert polar._trial_fiber_count(sub, n, 1, Fp, ScriptedStream(3, script),
                                        audit) == (True, True, 2, True)


def test_only_a_level_that_left_the_plain_system_replays_trials_with_the_audit(
        Fp, monkeypatch):
    calls, leaves = [], []

    def trial(sub, n, i, field, trial_seed, audit=False, plain=True):
        calls.append((audit, plain))
        value = 1 if len(calls) == 2 else 2
        return polar.TrialOutcome(trial_seed, value, True, True), plain and not leaves

    monkeypatch.setattr(polar, "_trial", trial)
    m = polar_map(qq("x0^3 + x1^3 + x2^3"))
    # every count stayed plain: the disagreeing level is returned as voted
    rep = map_degree(m, 1, trials=3, field=Fp)
    assert ([t.value for t in rep.trials], rep.stable) == ([2, 1, 2], False)
    assert calls == [(False, True)] * 3
    # the first trial leaves the plain system: the later ones start on the
    # saturation, and the trial off the vote is replayed there with the audit
    calls.clear()
    leaves.append(True)
    rep = map_degree(m, 1, trials=3, field=Fp)
    assert calls == [(False, True), (False, False), (False, False), (True, False)]
    assert [t.value for t in rep.trials] == [2, 2, 2] and rep.stable


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
