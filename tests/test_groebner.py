"""Groebner engine: bases, queries, reducedness."""

import hashlib
import importlib
import random
from itertools import product

import pytest

from _oracles import (count_points_off, line_restriction, normal_form, plain_reduced_basis,
                      points_ideal, reduced_by_normal_forms)
from conftest import gfp, qq, random_poly
from polardeg.errors import DegenerateInputError, FieldMismatchError, ResourceLimitError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.groebner import (_line, _restrict_to_line, common_factor, groebner,
                               ideal_dimension, is_reduced_zero_dim, quotient_dimension)
from polardeg.parse import parse_poly
from polardeg.poly import MultiPoly, gcd_many, gradient, linear_combination, substitute_all
from polardeg.rand import SeedStream, random_vector


def GB(*polys):
    return groebner(polys)


def ell(G, seed):
    """Coefficients of a random linear form on G's variables."""
    return random_vector(G.field, G.nvars, SeedStream(seed))


def with_off(gens, off):
    """(G, rows): the basis of gens, with the polys of off joining its span,
    and off as the unit rows of their slots in that span."""
    span = [*gens, *off]
    G = groebner(span, [[0] * k + [1] for k in range(len(gens))])
    return G, [[0] * k + [1] for k in range(len(gens), len(span))]


def test_groebner_coordinate_ideal():
    G = GB(qq("x0", 2), qq("x1", 2))
    assert [str(b) for b in G.basis] == ["x1", "x0"]


def test_groebner_two_point_curve_system():
    # x1 = x0^2, x0 = x1^2 -> x0^4 = x0: four solutions over the closure
    G = GB(qq("x0^2 - x1", 2), qq("x1^2 - x0", 2))
    assert G.standard is not None
    assert quotient_dimension(G) == 4


def test_groebner_unit_ideal():
    G = GB(qq("x0", 2), qq("x0 - 1", 2))
    assert [str(b) for b in G.basis] == ["1"]
    assert G.is_unit_ideal()
    assert [str(b) for b in GB(qq("5", 2)).basis] == ["1"]


def test_groebner_deterministic():
    gens = [qq("x0^2 + x1*x2"), qq("x1^2 - x0*x2"), qq("x0*x1 + x2^2")]
    a = GB(*gens)
    b = GB(*gens)
    assert a.basis == b.basis


def test_groebner_refuses_zero_and_mixed_generators():
    with pytest.raises(DegenerateInputError):
        groebner([qq("0"), qq("0")])
    with pytest.raises(FieldMismatchError):
        groebner([qq("x0"), gfp("x1")])
    with pytest.raises(FieldMismatchError):
        groebner([qq("x0", 2), qq("x1", 3)])
    # zero generators are dropped, not refused
    assert GB(qq("0"), qq("x0"), qq("0")).basis == (qq("x0"),)


def test_queries_leave_the_polynomial_basis_unbuilt():
    G = GB(gfp("x0^2 - x1"), gfp("x1^2 - x2"), gfp("x2^2 - 1"))
    assert quotient_dimension(G) == 8
    assert is_reduced_zero_dim(G, ell(G, 1))
    assert G.packing.vbits == 8 and "basis" not in vars(G)


def _spoly(f, g):
    (ef, cf), (eg, cg) = f.leading(), g.leading()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    field = f.field
    sf = f.shift(tuple(l - e for l, e in zip(lcm, ef)), field.inv(cf))
    sg = g.shift(tuple(l - e for l, e in zip(lcm, eg)), field.inv(cg))
    return sf - sg


def test_buchberger_criterion_on_output():
    rng = random.Random(2)
    shapes = [(3, 3, 4), (5, 2, 3)]     # (nvars, max_degree, n_terms)
    for (nvars, max_degree, n_terms), field in product(shapes, (QQ, GF(DEFAULT_PRIME))):
        for _ in range(6):
            gens = [random_poly(field, nvars, max_degree, n_terms, rng) for _ in range(3)]
            if all(g.is_zero() for g in gens):
                continue
            G = groebner(gens)
            for a in range(len(G.basis)):
                for b in range(a + 1, len(G.basis)):
                    s = _spoly(G.basis[a], G.basis[b])
                    assert normal_form(s, G).is_zero()


# ideals the plain oracle must agree on besides random ones
ORACLE_IDEALS = {
    "duplicate-generators": ["x0^2 + x1 - 1", "x0*x1 - x2", "x0^2 + x1 - 1"],
    # the second lead is a multiple of the first, so only the final
    # minimalization drops the second input
    "divisible-input-lead": ["x0 + x1", "x0^2 + x2"],
    "unit-ideal": ["x0*x1 - 1", "x1^2 + x2", "x0"],
}


def _dense(field, nvars, degree, rng):
    """A poly with every monomial of degree <= degree, random nonzero coefficients."""
    return MultiPoly.from_terms(field, nvars, [
        (e, rng.randrange(1, field.modulus)) for e in product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree])


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME), GF(1000003)],
                         ids=["degrevlex-qq", "degrevlex-gfp", "degrevlex-gf1000003"])
def test_reduced_basis_equals_plain_buchberger(field):
    """Over GF(p) a sugar degree's S-pairs are reduced together, in slots
    narrower at the smaller prime; the dense systems put several pairs in
    one degree.  Over QQ every batch is one pair."""
    ideals = [[parse_poly(t, 3, field) for t in texts] for texts in ORACLE_IDEALS.values()]
    rng = random.Random(11)
    shapes = [(2, 2, 3, 5), (3, 3, 3, 4), (3, 2, 3, 4), (2, 2, 4, 4), (3, 3, 2, 5)]
    for nvars, ngens, max_degree, n_terms in shapes * 2:
        gens = [random_poly(field, nvars, max_degree, n_terms, rng) for _ in range(ngens)]
        if any(not g.is_zero() for g in gens):
            ideals.append(gens)
    if field.modulus:           # three dense cubics in 3 variables, four dense quadrics in 4
        ideals += [[_dense(field, nvars, degree, rng) for _ in range(nvars)]
                   for nvars, degree in [(3, 3), (4, 2)]]
    for gens in ideals:
        G = groebner(gens)
        assert list(G.basis) == plain_reduced_basis(gens), [str(g) for g in gens]


# Reduced bases pinned from earlier engines; every later engine must
# reproduce them element for element.
GOLDEN_BASES = {
    "qq-degrevlex-3": (
        [qq("x0^2 + x1*x2"), qq("x1^2 - x0*x2"), qq("x0*x1 + x2^2")],
        ["x1^2 - x0*x2", "x0*x1 + x2^2", "x0^2 + x1*x2"]),
    "qq-degrevlex-2": (
        [qq("x0^2 + x1^2 - 1", 2), qq("x0*x1 - 2", 2)],
        ["x0*x1 - 2", "x0^2 + x1^2 - 1", "x1^3 + 2*x0 - x1"]),
    "qq-degrevlex-3b": (
        [qq("x0^2 - x1*x2 + 1"), qq("x1^2 - x0 + x2"), qq("x2^2 - x0*x1")],
        ["x1^2 - x0 + x2", "x0*x1 - x2^2", "x0^2 - x1*x2 + 1",
         "x1*x2^2 + x0*x2 - x1*x2 + 1", "x0*x2^2 - x0*x2 + x2^2 + x1",
         "x2^4 - x2^3 - x0*x2 + x1*x2 + x0 - x2 - 1"]),
    "gfp-degrevlex-4": (
        [gfp("x0*x1 + x2*x3 - 1", 4), gfp("x0^2 - x1*x3 + 2*x2", 4),
         gfp("x1^2 + x2^2 - x3", 4), gfp("x0 + x1 + x2 + x3 - 3", 4)],
        ["x0 + x1 + x2 + x3 + 2147483644",
         "x2^2 + 1073741823*x1*x3 + 2*x2*x3 + 1073741824*x3^2 + 2147483645*x2"
         " + 1073741820*x3 + 1073741827",
         "x1*x2 + 1073741824*x1*x3 + x2*x3 + 1073741824*x3^2 + 2147483644*x1"
         " + 2147483645*x2 + 1073741821*x3 + 1073741828",
         "x1^2 + 1073741824*x1*x3 + 2147483645*x2*x3 + 1073741823*x3^2 + 2*x2"
         " + 1073741826*x3 + 1073741820",
         "x2*x3^2 + 1717986918*x3^3 + 214748364*x1*x3 + 644245094*x2*x3"
         " + 1073741822*x3^2 + 1932735280*x1 + 1503238552*x2 + 429496730*x3 + 1073741827",
         "x1*x3^2 + 858993459*x3^3 + 1717986916*x1*x3 + 858993460*x2*x3 + 3*x3^2"
         " + 429496721*x1 + 1288490187*x2 + 1288490178*x3 + 16",
         "x3^4 + 1932735276*x3^3 + 1717986906*x1*x3 + 1932735341*x2*x3 + 77*x3^2"
         " + 1503238413*x1 + 214748306*x2 + 214748155*x3 + 1073742113"]),
    "gfp-degrevlex-5": (
        [gfp("x0 - x1*x2 + x4", 5), gfp("x1^2 - x3 + x0", 5),
         gfp("x2^2 - x4 + 1", 5), gfp("x3*x4 - 2", 5), gfp("x4^2 - x3 - 1", 5)],
        ["x4^2 + 2147483646*x3 + 2147483646",
         "x3*x4 + 2147483645",
         "x3^2 + x3 + 2147483645*x4",
         "x2^2 + 2147483646*x4 + 1",
         "x1*x2 + 2147483646*x0 + 2147483646*x4",
         "x0*x2 + 2147483646*x1*x4 + x2*x4 + x1",
         "x1^2 + x0 + 2147483646*x3",
         "x0*x1 + 2147483646*x2*x3 + 2*x1*x4 + 2147483646*x2*x4 + 2147483646*x1",
         "x0^2 + 3*x0*x4 + 2147483646*x0 + 2*x3 + 2147483646"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BASES))
def test_golden_reduced_bases(name):
    gens, expected = GOLDEN_BASES[name]
    assert [str(b) for b in GB(*gens).basis] == expected


def _chart_fiber_system(form, rng):
    """deg_0 fiber of the polar map of a plane form, chart x2 = 1, with x2
    reused as the saturation variable u: u * aux - 1; the three target rows
    are drawn from rng."""
    F = form.field
    comps = gradient(form)
    images = [MultiPoly.variable(F, 3, 0), MultiPoly.variable(F, 3, 1), MultiPoly.one(F, 3)]
    sub = [c.substitute(images) for c in comps]

    def combo(row):
        g = MultiPoly.zero(F, 3)
        for c, s in zip(row, sub):
            g = g + s.scale(c)
        return g

    rows = [[rng.randrange(1, F.modulus) for _ in range(3)] for _ in range(3)]
    return [combo(rows[0]), combo(rows[1]),
            MultiPoly.variable(F, 3, 2) * combo(rows[2]) - MultiPoly.one(F, 3)]


def _ladder_fiber_system():
    """The fiber system of a dense random plane sextic (degree 25)."""
    rng = random.Random(6)
    items = [((a, b, 6 - a - b), rng.randrange(1, DEFAULT_PRIME))
             for a in range(7) for b in range(7 - a)]
    return _chart_fiber_system(MultiPoly.from_terms(GF(DEFAULT_PRIME), 3, items), rng)


def _acceptance_fiber_system():
    """The fiber system of a plane quartic as acceptance draws it (degree 9)."""
    return _chart_fiber_system(gfp("x0^4 + x1^4 + x2^4 + x0*x1*x2^2"), random.Random(4))


def _digest(G):
    return hashlib.sha256("\n".join(str(b) for b in G.basis).encode()).hexdigest()


def test_golden_six_variable_basis():
    G = GB(qq("x0*x1 - x2*x3", 6), qq("x1*x2 - x4*x5 + x0", 6), qq("x3^2 - x0*x5", 6),
           qq("x4*x0 - x1^2 + x5", 6), qq("x0 + x1 + x2 + x3 + x4 + x5 - 1", 6),
           qq("x2^2 - x3*x4 + 2", 6))
    assert len(G.basis) == 20
    assert str(G.basis[-1]).startswith("x5^5 - 11*x5^4 + 11/3*x4^2*x5 - 125/6*x2*x5^2")
    assert _digest(G) == "d3102ea30901b3fa3398e51c56eaa19838a52b1fa67e426c7b05fd6b8eaa3467"


def test_golden_ladder_sized_basis():
    G = groebner(_ladder_fiber_system())
    assert [len(str(b)) for b in G.basis] == [
        474, 473, 471, 478, 477, 470, 476, 479, 474, 472, 467, 478, 474, 472, 481]
    assert _digest(G) == "a3cf810dd32f2c612c60e315da28326a0318a0bffa39f6d11d0af9fa2b02527f"
    assert quotient_dimension(G) == 25
    assert is_reduced_zero_dim(G, ell(G, 3))


# S-pairs each system reduces, counted whole batches at a time (all the
# pairs of one sugar degree): the pair update and the selection order must
# keep the count, read through the pair cap
PAIR_COUNTS = {"ladder-sextic": (_ladder_fiber_system, 100),
               "acceptance-quartic": (_acceptance_fiber_system, 22)}


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_s_pair_count_is_pinned(name, monkeypatch):
    system, pairs = PAIR_COUNTS[name]
    gens = system()
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", str(pairs))
    groebner(gens)
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", str(pairs - 1))
    with pytest.raises(ResourceLimitError, match="S-pair cap"):
        groebner(gens)


def test_a_sugar_degree_is_reduced_in_one_call(monkeypatch):
    """The S-pairs of one sugar degree go through one reduction together,
    and the tails of the final basis through one more: the ladder-sized
    system makes fewer reduction calls than it reduces pairs."""
    module = importlib.import_module("polardeg.groebner")
    reduce, rows_per_call = module._reduce, []

    def counted(rows, *args):
        rows_per_call.append(len(rows))
        return reduce(rows, *args)

    monkeypatch.setattr(module, "_reduce", counted)
    G = groebner(_ladder_fiber_system())
    assert _digest(G) == "a3cf810dd32f2c612c60e315da28326a0318a0bffa39f6d11d0af9fa2b02527f"
    assert len(rows_per_call) < PAIR_COUNTS["ladder-sextic"][1]
    assert max(rows_per_call) > 1


def test_basis_is_reduced_and_monic():
    G = GB(qq("x0^2 - x1", 2), qq("x1^2 - x0", 2), qq("x0*x1 - 1", 2))
    leads = [p.leading()[0] for p in G.basis]
    for i, p in enumerate(G.basis):
        assert p.leading()[1] == QQ.one()
        for exp in p.terms:
            for j, lead in enumerate(leads):
                if j != i:
                    assert not all(a <= b for a, b in zip(lead, exp))
            if exp != p.leading()[0]:
                assert not all(a <= b for a, b in zip(leads[i], exp))


def test_normal_form_examples():
    G = GB(qq("x0", 2))
    assert normal_form(qq("x0^2", 2), G).is_zero()
    assert normal_form(qq("x1", 2), G) == qq("x1", 2)


def test_normal_form_membership_fermat_cubic_gradient():
    # Euler's identity makes the cubic a combination of its partials
    F = qq("x0^3 + x1^3 + x2^3")
    G = GB(*gradient(F))
    assert normal_form(F, G).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(17)
    G = GB(gfp("x0^2 - x1"), gfp("x1^2 - x2"), gfp("x2^2 - 1"))
    field = GF(DEFAULT_PRIME)
    for _ in range(8):
        p = random_poly(field, 3, 4, 5, rng)
        q = random_poly(field, 3, 4, 5, rng)
        np_, nq = normal_form(p, G), normal_form(q, G)
        assert normal_form(np_, G) == np_
        assert normal_form(p + q, G) == np_ + nq
        c = field.from_int(rng.randrange(1, 50))
        assert normal_form(p.scale(c), G) == np_.scale(c)


def test_is_zero_dimensional_examples():
    assert GB(qq("x0", 2), qq("x1", 2)).standard is not None
    assert GB(qq("x0", 2)).standard is None


def test_cremona_fiber_system_zero_dimensional():
    # generic fiber of the standard quadratic involution is a single point,
    # the system sees it plus the three base points: still finite
    F = GF(DEFAULT_PRIME)
    rng = SeedStream(31)
    comps = [gfp("x1*x2"), gfp("x0*x2"), gfp("x0*x1")]
    y = [rng.below(DEFAULT_PRIME - 1) + 1 for _ in range(3)]
    e1 = comps[0].scale(y[1]) - comps[1].scale(y[0])
    e2 = comps[0].scale(y[2]) - comps[2].scale(y[0])
    chart = MultiPoly.from_terms(F, 3, (
        ((1, 0, 0), rng.below(DEFAULT_PRIME)),
        ((0, 1, 0), rng.below(DEFAULT_PRIME)),
        ((0, 0, 1), rng.below(DEFAULT_PRIME)),
        ((0, 0, 0), F.neg(F.one()))))
    G = groebner([e1, e2, chart])
    assert G.standard is not None


def test_quotient_dimension_examples():
    assert quotient_dimension(GB(qq("x0^2", 2), qq("x1", 2))) == 2
    assert quotient_dimension(GB(qq("x0 - 5", 2), qq("x1 - 7", 2))) == 1
    with pytest.raises(DegenerateInputError):
        quotient_dimension(GB(qq("x0", 2)))


def test_standard_monomials_box():
    G = GB(qq("x0^2", 2), qq("x1^3", 2))
    assert quotient_dimension(G) == 6


def test_ideal_dimension_examples():
    assert ideal_dimension(GB(qq("x0", 3))) == 2
    assert ideal_dimension(GB(qq("x0", 2), qq("x1", 2))) == 0
    assert ideal_dimension(GB(qq("x0 - 1", 1), qq("x0", 1))) == -1
    # cone over the three singular points of the coordinate triangle
    assert ideal_dimension(GB(*gradient(qq("x0*x1*x2")))) == 1


# (field, nvars, polys, whether the gcd is constant)
COMMON_FACTOR_CASES = {
    "coprime-lines": (QQ, 2, ["x0", "x1"], True),
    "shared-line": (QQ, 2, ["x0*x1", "x0*x1^2 + x0^2"], False),
    "zero-entry": (QQ, 3, ["x0*x1", "0", "x0*x2"], False),
    "single-conic": (QQ, 3, ["2*x0^2 + x1^2 + x2^2"], False),
    "single-constant": (QQ, 3, ["7"], True),
    "constant-entry": (GF(DEFAULT_PRIME), 3, ["3", "x0*x1"], True),
    "codim-two-zeros": (QQ, 4, ["x0*x1", "x2*x3", "x0*x3"], True),
    "shared-plane": (QQ, 4, ["(x0 + x1)*(x2 - x3)", "(x0 + x1)*(x2 + x3)",
                             "(x0 + x1)*x0"], False),
    "five-vars-coprime": (GF(DEFAULT_PRIME), 5, ["x0^2 + x1*x4", "x2^3 - x3*x4^2",
                                                 "0"], True),
    "five-vars-shared-quadric": (GF(DEFAULT_PRIME), 5,
                                 ["x0*x1 - x2*x3", "x4*(x0*x1 - x2*x3)",
                                  "(x0*x1 - x2*x3)*(x1 + 2*x4)"], False),
    "non-homogeneous": (QQ, 2, ["x0^2 - 1", "x0*x1 - x1 + x0 - 1"], False),
    "non-homogeneous-coprime": (GF(DEFAULT_PRIME), 2, ["x0^2 - x1", "x1^2 - x0"], True),
}


@pytest.mark.parametrize("name", sorted(COMMON_FACTOR_CASES))
def test_common_factor_equals_gcd_many(name):
    field, nvars, texts, coprime = COMMON_FACTOR_CASES[name]
    polys = [parse_poly(t, nvars, field) for t in texts]
    g = common_factor(polys)
    assert g == gcd_many(polys)
    assert g.is_constant() == coprime


def test_common_factor_of_zero_polys_is_refused():
    with pytest.raises(DegenerateInputError):
        common_factor([qq("0"), qq("0")])
    with pytest.raises(DegenerateInputError):
        common_factor([])


def test_common_factor_refuses_mixed_rings_before_any_arithmetic():
    # x0 and x1 restrict to coprime lines, so only the ring check refuses
    with pytest.raises(FieldMismatchError):
        common_factor([qq("x0"), gfp("x1")])
    with pytest.raises(FieldMismatchError):
        common_factor([qq("x0", 2), qq("x1", 3)])


def _counting_gcd_many(monkeypatch):
    calls = []

    def count(polys):
        calls.append(polys)
        return gcd_many(polys)

    monkeypatch.setattr(importlib.import_module("polardeg.groebner"), "gcd_many", count)
    return calls


def test_common_factor_builds_no_groebner_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(importlib.import_module("polardeg.groebner"), "_buchberger", refuse)
    calls = _counting_gcd_many(monkeypatch)
    for field, nvars, texts, coprime in COMMON_FACTOR_CASES.values():
        g = common_factor([parse_poly(t, nvars, field) for t in texts])
        assert g.is_constant() == coprime
    # the line proves every coprime case; only the shared factors run the gcd
    assert len(calls) == sum(not case[3] for case in COMMON_FACTOR_CASES.values())


CERTIFICATE_FIELDS = [QQ, GF(1000003), GF(DEFAULT_PRIME)]


def _nonzero(field, nvars, max_degree, rng, homogeneous):
    """A random nonzero poly; with `homogeneous`, only its top-degree part."""
    while True:
        f = random_poly(field, nvars, max_degree, 4, rng)
        if homogeneous:
            top = f.total_degree()
            f = MultiPoly(field, nvars, {e: c for e, c in f.terms.items() if sum(e) == top})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("homogeneous", [True, False], ids=["forms", "affine"])
@pytest.mark.parametrize("field", CERTIFICATE_FIELDS, ids=repr)
def test_a_planted_factor_is_never_certified(field, homogeneous):
    rng = random.Random(23)
    for _ in range(12):
        nvars = rng.randrange(2, 5)
        g = _nonzero(field, nvars, 2, rng, homogeneous)
        while g.is_constant():
            g = _nonzero(field, nvars, 2, rng, homogeneous)
        polys = [g * _nonzero(field, nvars, 2, rng, homogeneous)
                 for _ in range(rng.randrange(1, 4))]
        common = common_factor(polys + [MultiPoly.zero(field, nvars)])
        assert common == gcd_many(polys) and not common.is_constant()


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS, ids=repr)
def test_the_line_restriction_is_substitution_mod_p(field):
    p, rng = field.modulus or DEFAULT_PRIME, random.Random(5)
    for nvars in (1, 2, 3, 5):
        polys = [_nonzero(field, nvars, 5, rng, False) for _ in range(3)]
        polys[0] = polys[0].scale(field.inv(field.from_int(7)))
        line = _line(p, nvars)
        images = [MultiPoly.from_terms(field, 1, [((0,), field.from_int(a)),
                                                  ((1,), field.from_int(b))])
                  for a, b in line]
        expected = []
        for f, image in zip(polys, substitute_all(polys, images)):
            image = image.to_field(GF(p))
            expected.append([image.terms.get((k,), 0) for k in range(f.total_degree() + 1)])
        assert _restrict_to_line(polys, p) == expected
        assert expected == [line_restriction(f, line, p) for f in polys]


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS, ids=repr)
def test_a_factor_constant_on_the_line_is_not_certified(field):
    # g = Q1*x0 - Q0*x1 vanishes at Q, so g(P + sQ) is the constant g(P) and
    # the restrictions of g*x0, g*x1 have a constant gcd; none keeps degree 2
    p = field.modulus or DEFAULT_PRIME
    (_, q0), (_, q1), _ = _line(p, 3)
    g = MultiPoly.from_terms(field, 3, [((1, 0, 0), field.from_int(q1)),
                                        ((0, 1, 0), field.from_int(-q0))])
    polys = [g * MultiPoly.variable(field, 3, v) for v in (0, 1)]
    images = _restrict_to_line(polys, p)
    assert [len(image) for image in images] == [3, 3] and not any(i[-1] for i in images)
    assert common_factor(polys) == gcd_many(polys) == gcd_many([g])


def test_forms_vanishing_on_the_line_fall_back_to_gcd_many(monkeypatch):
    # two independent linear forms with l(P) = l(Q) = 0, their coefficients
    # of x0, x1 solved by Cramer's rule
    p = DEFAULT_PRIME
    field = GF(p)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = _line(p, 4)
    inv = pow(a0 * b1 - a1 * b0, -1, p)
    forms = []
    for l2, l3 in ((1, 0), (0, 1)):
        r0, r1 = -(l2 * a2 + l3 * a3), -(l2 * b2 + l3 * b3)
        coeffs = [(r0 * b1 - a1 * r1) * inv % p, (a0 * r1 - r0 * b0) * inv % p, l2, l3]
        forms.append(MultiPoly.from_terms(field, 4, [(tuple(int(j == v) for j in range(4)), c)
                                                     for v, c in enumerate(coeffs)]))
    assert _restrict_to_line(forms, p) == [[0, 0], [0, 0]]
    calls = _counting_gcd_many(monkeypatch)
    assert common_factor(forms) == gcd_many(forms) == MultiPoly.one(field, 4)
    assert len(calls) == 1


def test_a_denominator_divisible_by_p_falls_back_to_gcd_many(monkeypatch):
    polys = [qq(f"1/{DEFAULT_PRIME}*x0 + x1"), qq("x2")]
    calls = _counting_gcd_many(monkeypatch)
    assert common_factor(polys) == gcd_many(polys) == qq("1")
    assert len(calls) == 1


def test_is_reduced_zero_dim_examples(Fp):
    one_point = GB(gfp("x0 - 1"), gfp("x1 - 2"), gfp("x2 - 3"))
    assert is_reduced_zero_dim(one_point, ell(one_point, 1)) == 1
    one_var = groebner([MultiPoly.from_terms(Fp, 1, [((2,), 1)])])
    assert is_reduced_zero_dim(one_var, ell(one_var, 1)) is None
    # a fat point: dimension 3, but every form has a minimal polynomial of degree 2
    fat = GB(gfp("x0^2", 2), gfp("x0*x1", 2), gfp("x1^2", 2))
    assert quotient_dimension(fat) == 3
    assert is_reduced_zero_dim(fat, ell(fat, 1)) is None
    # dimension 4 and minimal polynomial t^4: full degree, not squarefree
    nilpotent = GB(gfp("x0^2 - x1", 2), gfp("x1^2", 2))
    assert quotient_dimension(nilpotent) == 4
    assert is_reduced_zero_dim(nilpotent, ell(nilpotent, 1)) is None
    two_points = GB(gfp("x0^2 - 1", 2), gfp("x1 - 3", 2))
    assert quotient_dimension(two_points) == 2
    assert is_reduced_zero_dim(two_points, ell(two_points, 1)) == 2
    # the test runs over a prime field only, on one coefficient per variable
    with pytest.raises(DegenerateInputError):
        is_reduced_zero_dim(GB(qq("x0^2 - 1", 2), qq("x1 - 3", 2)), [1, 1])
    with pytest.raises(DegenerateInputError):
        is_reduced_zero_dim(two_points, [1, 1, 1])


def test_is_reduced_zero_dim_counts_the_points_off_the_common_zeros_of_off(Fp):
    p = DEFAULT_PRIME
    points = [(1, 2, 3), (2, 5, 7), (4, 0, 1), (6, 6, 6), (9, 3, p - 8)]
    gens = points_ideal(points, Fp)
    assert quotient_dimension(groebner(gens)) == 5
    x0, x1, x2 = (MultiPoly.variable(Fp, 3, v) for v in range(3))
    one = MultiPoly.one(Fp, 3)
    offs = [
        (),                                             # every point
        (one,),                                         # no common zero
        (MultiPoly.zero(Fp, 3),),                       # every point a common zero
        (x1 * (x0 - one.scale(2)),),                    # zero at the 2nd and 3rd
        (x1 * (x0 - one.scale(2)), (x0 - one) * (x0 - one.scale(4))),   # the 3rd
        (x1 - x2, x0 - one.scale(6), x1 * x2 - one.scale(36)),          # the 4th
        (x0 - one.scale(4), x1, x2 - one),              # the 3rd, found last
    ]
    counts = []
    for k, off in enumerate(offs):
        want = count_points_off(points, off, p) if off else len(points)
        G, rows = with_off(gens, off)
        for seed in range(3):
            assert is_reduced_zero_dim(G, ell(G, 10 * k + seed), rows) == want, (k, seed)
        counts.append(want)
    assert counts == [5, 5, 0, 3, 4, 4, 4]
    # a fat point is refused whatever off holds, and the unit ideal has no point
    fat = [gfp("x0^2", 2), gfp("x0*x1", 2), gfp("x1^2", 2)]
    for off in ((), (gfp("x0", 2),), (gfp("x0 + 1", 2),)):
        G, rows = with_off(fat, off)
        assert is_reduced_zero_dim(G, ell(G, 1), rows) is None
    unit, rows = with_off([gfp("x0", 2), gfp("x0 - 1", 2)], (gfp("x1", 2),))
    assert is_reduced_zero_dim(unit, ell(unit, 1), rows) == 0
    # a row of off combines the polys of the basis's span, and no more
    G, rows = with_off(gens, (x0,))
    assert len(G.span) == len(gens) + 1
    with pytest.raises(DegenerateInputError, match=f"the {len(G.span)} polys"):
        is_reduced_zero_dim(G, ell(G, 1), rows + [[0] * len(G.span) + [1]])


def test_is_reduced_zero_dim_counts_more_points_than_a_slot_width_step(Fp):
    """66 points on a parabola: the packed vectors of dim 66 pass the step
    of the slot width at 64 rows, and the count off each set of polys is
    checked point by point."""
    p = Fp.modulus
    rng = random.Random(66)
    points = [(a, (a * a + 3 * a) % p) for a in rng.sample(range(p), 66)]
    gens = points_ideal(points, Fp)
    assert quotient_dimension(groebner(gens)) == 66
    x0, x1 = (MultiPoly.variable(Fp, 2, v) for v in range(2))
    one = MultiPoly.one(Fp, 2)

    def vanishing(pts):
        out = one
        for a, _ in pts:
            out = out * (x0 - one.scale(a))
        return out

    offs = [(), (vanishing(points[:10]),),
            (vanishing(points[5:40]), x1 - one.scale(points[7][1])),
            (vanishing(points),)]
    counts = [count_points_off(points, off, p) if off else 66 for off in offs]
    assert counts == [66, 56, 65, 0]
    for k, (off, want) in enumerate(zip(offs, counts)):
        G, rows = with_off(gens, off)
        assert is_reduced_zero_dim(G, ell(G, k), rows) == want, k


def _cone_and_chart(form, i, seed):
    """The fiber systems of form's polar map for one set of draws at level
    i: the affine cone (target forms, ell0(phi) - 1 and Lambda's forms in
    x0, x1, x2) and the chart x2 = 1 (target forms and Lambda's forms)."""
    field = form.field
    rows = [random_vector(field, 3, SeedStream(seed + k)) for k in range(4)]
    target, ell0, source = rows[:2 - i], rows[2], rows[3:3 + i]
    phi = gradient(form)
    chart = [MultiPoly.variable(field, 2, 0), MultiPoly.variable(field, 2, 1),
             MultiPoly.one(field, 2)]

    def combo(row, polys):
        return sum((p.scale(c) for c, p in zip(row, polys)),
                   MultiPoly.zero(field, polys[0].nvars))

    coords = [MultiPoly.variable(field, 3, v) for v in range(3)]
    cone = ([combo(row, phi) for row in target] + [combo(ell0, phi) - MultiPoly.one(field, 3)]
            + [combo(row, coords) for row in source])
    dehom = [c.substitute(chart) for c in phi]
    plain = [combo(row, dehom) for row in target] + [combo(row, chart) for row in source]
    return groebner(cone), groebner(plain)


@pytest.mark.parametrize("degree, profile", [(3, (4, 2)), (4, (9, 3))])
def test_graded_count_on_the_cone_equals_the_chart_count(Fp, degree, profile):
    # a dense random smooth plane curve of this degree: its polar map has
    # degree d = degree - 1 and no base points, and every fiber point of
    # generic draws lies in the chart and off ell0(phi) = 0
    rng = random.Random(degree)
    form = MultiPoly.from_terms(Fp, 3, [((a, b, degree - a - b), rng.randrange(1, Fp.modulus))
                                        for a in range(degree + 1)
                                        for b in range(degree + 1 - a)])
    d = degree - 1
    for i, points in enumerate(profile):
        for seed in (0, 10, 20):
            cone, chart = _cone_and_chart(form, i, seed)
            assert quotient_dimension(cone) == d * quotient_dimension(chart) == d * points
            coeffs = ell(cone, seed)
            assert is_reduced_zero_dim(chart, coeffs[:2]) == points
            # the cone count sees the d cone points over each fiber point, so
            # polar divides it by d (the grading d of the test is gone)
            assert is_reduced_zero_dim(cone, coeffs) == d * points


def test_graded_count_refuses_a_non_reduced_cone(Fp):
    # the fiber of (x0^2 : x1^2 : x2^2) over (0 : 1 : 1) is x0^2 = 0,
    # x1^2 = x2^2: two double points.  With ell0 = y1 the cone has 8
    # dimensions, and it is not reduced
    p = DEFAULT_PRIME
    cone = GB(gfp("x0^2"), gfp("x1^2 - x2^2"), gfp("x1^2 - 1"))
    assert quotient_dimension(cone) == 8
    for seed in range(3):
        assert is_reduced_zero_dim(cone, ell(cone, seed)) is None
    # the reduced fiber over (1 : 1 : 1): four points, 8 = 2 * 4 on the cone
    cone = GB(gfp("x0^2 - x2^2"), gfp("x1^2 - x2^2"), gfp(f"x0^2 + {p - 1}"))
    assert quotient_dimension(cone) == 8
    assert is_reduced_zero_dim(cone, ell(cone, 1)) == 8


def test_graded_count_refuses_a_part_of_the_wrong_dimension(Fp):
    # the origin is the one point the roots of unity fix: its quotient has 1
    # dimension, not a multiple of d.  The grading d, its refusal of d = 0 and
    # its check that the degree-0 part has dim / d dimensions are gone; a
    # cone never meets the origin, where ell0(phi) = 1 fails, so its count
    # is d times the fiber's
    origin = GB(gfp("x0", 2), gfp("x1", 2))
    assert is_reduced_zero_dim(origin, [1, 2]) == 1
    assert GB(gfp("x0", 2), gfp("x1", 2), gfp("x0^2 + 3*x1^2 - 1", 2)).is_unit_ideal()


# zero-dimensional GF(p) systems for the reducedness oracle, as (nvars, texts)
REDUCEDNESS_SYSTEMS = {
    "one-point": (3, ["x0 - 1", "x1 - 2", "x2 - 3"]),
    "two-points": (2, ["x0^2 - 1", "x1 - 3"]),
    "four-points": (2, ["x0^2 - 1", "x1^2 - 4"]),
    "eight-points": (3, ["x0^2 - x1", "x1^2 - x2", "x2^2 - 1"]),
    "cube-roots": (2, ["x0^3 - 1", "x1 - x0^2"]),
    "hyperbola-line": (2, ["x0*x1 - 1", "x0 + x1 - 3"]),
    "circle-diagonal": (2, ["x0^2 + x1^2 - 1", "x0 - x1"]),
    "twisted": (3, ["x0 - x1^2", "x1 - x2^2", "x2^3 - 2"]),
    "three-roots": (1, ["x0^3 - x0"]),
    "unit-ideal": (2, ["x0", "x0 - 1"]),
    "fat-point": (2, ["x0^2", "x0*x1", "x1^2"]),
    "double-root": (1, ["x0^2 - 2*x0 + 1"]),
    "triple-root": (1, ["x0^3"]),
    "nilpotent": (2, ["x0^2 - x1", "x1^2"]),
    "square-box": (2, ["x0^2", "x1^2"]),
    "cross": (2, ["x0^2 - x1^2", "x0*x1"]),
    "point-and-double": (2, ["(x0 - 1)*x0^2", "x1 - x0"]),
    "tangent-conics": (2, ["x1 - x0^2", "x1"]),
    "embedded-in-three": (3, ["x0^2", "x1 - x0", "x2^2 - 1"]),
}


def _random_zero_dim_systems(count, field=GF(DEFAULT_PRIME)):
    """count random zero-dimensional systems over field: n dense polys in n
    variables, one of them squared in every other system."""
    rng = random.Random(29)
    out = []
    while len(out) < count:
        nvars = rng.choice((2, 3))
        gens = [random_poly(field, nvars, 2, 4, rng) for _ in range(nvars)]
        if len(out) % 2:
            gens[0] = gens[0] * gens[0]
        if any(g.is_zero() for g in gens):
            continue
        G = groebner(gens)
        if G.standard is not None and 0 < quotient_dimension(G) <= 16:
            out.append(G)
    return out


def test_is_reduced_zero_dim_matches_the_normal_form_oracle():
    bases = [groebner([gfp(t, nvars) for t in texts])
             for nvars, texts in REDUCEDNESS_SYSTEMS.values()]
    bases += [groebner(_ladder_fiber_system()), groebner(_acceptance_fiber_system())]
    bases += _random_zero_dim_systems(10)
    answers = set()
    for k, G in enumerate(bases):
        coeffs = ell(G, k)
        want = reduced_by_normal_forms(G, coeffs)
        assert is_reduced_zero_dim(G, coeffs) == want, k
        answers.add(want is None)
    assert answers == {True, False}
    # a form that does not separate the two points (1, 1), (2, 2), then one
    # that does
    G = GB(gfp("x0 - x1", 2), gfp("x1^2 - 3*x1 + 2", 2))
    for coeffs, want in (([1, DEFAULT_PRIME - 1], None), (ell(G, 5), 2)):
        assert reduced_by_normal_forms(G, coeffs) == want
        assert is_reduced_zero_dim(G, coeffs) == want
    # both refuse an infinite quotient
    G = GB(gfp("x0^2", 2), gfp("x0*x1", 2))
    for check in (reduced_by_normal_forms, is_reduced_zero_dim):
        with pytest.raises(DegenerateInputError):
            check(G, [1, 1])


def test_is_reduced_zero_dim_walks_the_border_without_reductions(Fp, monkeypatch):
    """Every normal form the test reads comes from its border walk and every
    elimination is its own: with the basis reduction and linalg's row
    reduction made to raise, it still counts the points off the common
    zeros of the off rows."""
    points = [(1, 2, 3), (2, 5, 7), (4, 0, 1), (6, 6, 6)]
    x0, x1 = (MultiPoly.variable(Fp, 3, v) for v in range(2))
    one = MultiPoly.one(Fp, 3)
    off = [(x0 - one.scale(2)) * (x0 - one.scale(6)), x1 * x1 - one.scale(25)]
    G, rows = with_off(points_ideal(points, Fp), off)
    want = count_points_off(points, off, DEFAULT_PRIME)
    assert want == 3

    def refuse(*args):
        raise AssertionError("the reducedness test reduces nothing by the basis")

    module = importlib.import_module("polardeg.groebner")
    monkeypatch.setattr(module, "_reduce", refuse)
    monkeypatch.setattr(module, "row_reduce", refuse, raising=False)
    monkeypatch.setattr(importlib.import_module("polardeg.linalg"), "row_reduce", refuse)
    for seed in range(3):
        assert is_reduced_zero_dim(G, ell(G, seed), rows) == want


def _planted_off(points, zeros, field, degree, rng):
    """Two polys whose common zeros among the points include the points
    zeros: the vanishing poly of their first coordinates times a sparse
    random poly, and times a dense one of the given degree, whose many terms
    sum more products than one slot of a small quotient holds."""
    nvars, p = len(points[0]), field.modulus
    x0, one = MultiPoly.variable(field, nvars, 0), MultiPoly.one(field, nvars)
    vanishing = one
    for z in zeros:
        vanishing = vanishing * (x0 - one.scale(z[0] % p))
    dense = MultiPoly.from_terms(field, nvars, [
        (e, rng.randrange(1, p)) for e in product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree])
    return [vanishing * (random_poly(field, nvars, 2, 3, rng) + one.scale(rng.randrange(1, p))),
            vanishing * dense]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 1000003])
def test_is_reduced_zero_dim_with_off_matches_the_normal_form_oracle(p):
    """Counts off the common zeros of off rows agree with the oracle's: on
    random systems, half of them not reduced, with random polys joining the
    span; and on the ideals of 1 to 80 points, past the step of the slot
    width at 64 rows, with common zeros planted at none, some or all of the
    points, where the count by evaluation agrees too."""
    field = GF(p)
    rng = random.Random(p)
    answers = []
    for k, G in enumerate(_random_zero_dim_systems(8, field)):
        off = [random_poly(field, G.nvars, 3, 4, rng) for _ in range(2)]
        G, rows = with_off(list(G.basis), off)
        rows.append([rng.randrange(p) for _ in G.span])     # generators and off mixed
        coeffs = ell(G, k)
        want = reduced_by_normal_forms(G, coeffs, rows)
        assert is_reduced_zero_dim(G, coeffs, rows) == want, k
        answers.append(want)
    assert None in answers and any(answers)
    counts = set()
    for npts in (1, 2, 5, 13, 30, 80):
        if npts <= 13:          # random points in space
            points = [(a, rng.randrange(p), rng.randrange(p)) for a in rng.sample(range(p), npts)]
        else:                   # points on a plane cubic, whose basis is quick
            points = [(a, (a ** 3 + 2 * a + 5) % p) for a in rng.sample(range(p), npts)]
        gens = points_ideal(points, field)
        for zeros in ([], points[:npts // 3], points):
            off = _planted_off(points, zeros, field, 6 if npts <= 2 else 1, rng)
            G, rows = with_off(gens, off)
            assert quotient_dimension(G) == npts
            coeffs, want = ell(G, npts), count_points_off(points, off, p)
            assert reduced_by_normal_forms(G, coeffs, rows) == want, (npts, len(zeros))
            assert is_reduced_zero_dim(G, coeffs, rows) == want, (npts, len(zeros))
            counts.add((npts, want))
    assert {(1, 1), (1, 0), (80, 80), (80, 54), (80, 0)} <= counts
    # ell = x0 - x1 does not separate (1, 1) and (2, 2), and a double point
    # is not reduced, whatever off holds
    x0_plus_x1 = [parse_poly("x0 + x1 + 1", 2, field)]
    for texts, coeffs in ((["x0^2 - 3*x0 + 2", "x0 - x1"], [1, p - 1]),
                          (["x0^2 - 2*x0 + 1", "x1 - 2"], [3, 5])):
        G, rows = with_off([parse_poly(t, 2, field) for t in texts], x0_plus_x1)
        assert quotient_dimension(G) == 2
        assert reduced_by_normal_forms(G, coeffs, rows) is None
        assert is_reduced_zero_dim(G, coeffs, rows) is None


def test_fermat_quartic_fiber_reduced(Fp):
    # base-point-free quartic polar: generic fibers are 9 reduced points
    F = gfp("x0^4 + x1^4 + x2^4")
    comps = gradient(F)
    for trial_seed in (5, 6, 7):
        rng = SeedStream(trial_seed)
        y = [rng.below(DEFAULT_PRIME - 1) + 1 for _ in range(3)]
        e1 = comps[0].scale(y[1]) - comps[1].scale(y[0])
        e2 = comps[0].scale(y[2]) - comps[2].scale(y[0])
        chart = MultiPoly.from_terms(Fp, 3, (
            ((1, 0, 0), rng.below(DEFAULT_PRIME)),
            ((0, 1, 0), rng.below(DEFAULT_PRIME)),
            ((0, 0, 1), rng.below(DEFAULT_PRIME)),
            ((0, 0, 0), Fp.neg(Fp.one()))))
        G = groebner([e1, e2, chart])
        assert G.standard is not None
        assert quotient_dimension(G) == 9
        assert is_reduced_zero_dim(G, random_vector(Fp, 3, rng))


def test_pair_cap_is_reported(monkeypatch):
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", "2")
    gens = [gfp("x0^4 + x1^3*x2 - x0*x1*x2"), gfp("x1^4 - x0^2*x2^2 + x2^4"),
            gfp("x0^2*x1^2 - x2^4 + x0*x2^3")]
    with pytest.raises(ResourceLimitError):
        groebner(gens)


def test_quotient_cap_is_reported():
    # x0^D - 1 has D standard monomials: the cap admits D = MAX_QUOTIENT
    cap = importlib.import_module("polardeg.groebner").MAX_QUOTIENT
    assert quotient_dimension(GB(gfp(f"x0^{cap} - 1", 1))) == cap
    with pytest.raises(ResourceLimitError, match=rf"quotient cap exceeded \({cap} "):
        GB(gfp(f"x0^{cap + 1} - 1", 1))


def test_basis_size_cap_is_reported(monkeypatch):
    # the first nonzero S-pair reduction of these cubics builds a third element
    monkeypatch.setattr(importlib.import_module("polardeg.groebner"), "DEFAULT_MAX_BASIS", 2)
    with pytest.raises(ResourceLimitError, match=r"^basis size cap exceeded \(2\)$"):
        GB(qq("x0^3 + x1^3 + x2^3"), qq("x0*x1*x2 - x2^3"))


def test_packed_exponent_overflow_widens_or_refuses():
    G = GB(qq("x0 - x1^40000", 2))
    assert G.basis == (qq("x1^40000 - x0", 2),)
    # Mora's example, d = 16: inputs of degree 17 give a basis element of
    # degree 257, past the first field width
    G = GB(qq("x0^17 - x1*x2^15*x3", 4), qq("x0*x1^15 - x2^16", 4),
           qq("x0^16*x2 - x1^16*x3", 4))
    assert qq("x2^257 - x1^256*x3", 4) in G.basis
    assert G.packing.vbits == 16
    huge = MultiPoly.from_terms(QQ, 2, [((1, 0), QQ.one()), ((0, 1 << 70), QQ.one())])
    with pytest.raises(ResourceLimitError, match="packed exponent"):
        GB(huge)


def test_an_overflowing_standard_monomial_restarts_wider(Fp, monkeypatch):
    # at 4 bits a field holds degree 15: the leads x0^6, x1^6, x2^6 and their
    # lcms fit, but x0 times the standard monomial x0^5*x1^5*x2^5 does not
    gb = importlib.import_module("polardeg.groebner")
    polys = [gfp("x0^6 - 1"), gfp("x1^6 - 2"), gfp("x2^6 - 3")]
    pk = gb._packing(3, 4)
    elems = gb._buchberger([sorted(pk.terms(f), reverse=True) for f in polys], pk, Fp)
    with pytest.raises(gb._Overflow):
        gb._standard_monomials(elems, pk)
    # so a basis computed at 4 bits first restarts, at twice the usual width
    want, real, widths = groebner(polys), gb._packing, []

    def narrow_first(nvars, vbits):
        widths.append(vbits)
        return real(nvars, 4 if len(widths) == 1 else vbits)

    monkeypatch.setattr(gb, "_packing", narrow_first)
    G = groebner(polys)
    assert widths == [8, 16] and G.packing.vbits == 16
    assert G.basis == want.basis and quotient_dimension(G) == quotient_dimension(want) == 216


ROW_FIELDS = [QQ, GF(1000003), GF(DEFAULT_PRIME)]


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_rows_give_the_basis_of_their_combinations(field):
    # a fiber system's shape: fixed polys, some of them zero, and rows of
    # drawn coefficients, some shorter than the polys, one entry a literal -1
    rng = random.Random(24)
    checked = 0
    for _ in range(12):
        polys = [random_poly(field, 3, 3, 3, rng) for _ in range(5)] + [MultiPoly.one(field, 3)]
        rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 7))]
                for _ in range(3)] + [[0] * 5 + [-1]]
        combos = [linear_combination(row, polys) for row in rows]
        G, H = groebner(polys, rows), groebner(combos)
        assert G.lead_exps == H.lead_exps and G.elems == H.elems
        checked += not G.is_unit_ideal()
    # the combinations without the unit
    for _ in range(12):
        polys = [random_poly(field, 3, 3, 3, rng) for _ in range(4)]
        rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        combos = [linear_combination(row, polys) for row in rows]
        if all(c.is_zero() for c in combos):
            continue
        G, H = groebner(polys, rows), groebner(combos)
        assert G.lead_exps == H.lead_exps and G.elems == H.elems
        checked += not G.is_unit_ideal()
    assert checked >= 6


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_rows_drop_a_zero_combination(field):
    f, g = (parse_poly(t, 3, field) for t in ("x0^2 - x1*x2", "x1^3 + 2*x2^3 - x0*x1*x2"))
    minus_one = field.neg(field.one())
    G = groebner([f, g, f], [[1, 0, minus_one], [0, 1], [0, 0, 0]])
    assert G == groebner([g])
    # a row that sums to zero only after the field's reduction
    half = field.inv(field.from_int(2))
    assert groebner([f, f, g], [[half, field.neg(half)], [0, 0, 1]]) == groebner([g])


def test_rows_widen_the_packing_as_the_polys_do():
    # Mora's example through rows, the identity and a sum: a basis element
    # of degree 257 is past the first field width
    polys = [qq("x0^17 - x1*x2^15*x3", 4), qq("x0*x1^15 - x2^16", 4),
             qq("x0^16*x2 - x1^16*x3", 4)]
    G = groebner(polys, [[1], [0, 1, 1], [0, 0, 1]])
    assert G == groebner(polys) and G.packing.vbits == 16


def test_rows_refuse_an_all_zero_system_and_mixed_rings(Fp):
    f, zero = gfp("x0*x1 - x2^2"), MultiPoly.zero(Fp, 3)
    for polys, rows in (([f, f], [[1, Fp.neg(Fp.one())]]), ([f], [[0], []]),
                        ([f], []), ([zero, zero], [[1, 1]])):
        with pytest.raises(DegenerateInputError, match="nonzero generator"):
            groebner(polys, rows)
    with pytest.raises(DegenerateInputError, match="more coefficients"):
        groebner([f], [[1, 1]])
    for other in (qq("x0*x1 - x2^2"), gfp("x0", 2), gfp("x0", 3, 1000003)):
        with pytest.raises(FieldMismatchError):
            groebner([f, other], [[1, 0], [0, 1]])
