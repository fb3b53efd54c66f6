"""Groebner engine: bases, queries, reducedness."""

import random

import pytest

from conftest import gfp, qq, random_poly
from polardeg.errors import DegenerateInputError, ResourceLimitError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.groebner import (DEGREVLEX, LEX, Ideal, groebner, ideal_dimension,
                               is_reduced_zero_dim, is_zero_dimensional,
                               normal_form, quotient_dimension,
                               standard_monomials)
from polardeg.poly import MultiPoly, gradient
from polardeg.rand import SeedStream


def GB(*polys, order=DEGREVLEX, **kw):
    return groebner(Ideal.of(list(polys)), order, **kw)


def test_groebner_coordinate_ideal():
    G = GB(qq("x0", 2), qq("x1", 2))
    assert [str(b) for b in G.basis] == ["x1", "x0"]


def test_groebner_two_point_curve_system():
    # x1 = x0^2, x0 = x1^2 -> x0^4 = x0: four solutions over the closure
    G = GB(qq("x0^2 - x1", 2), qq("x1^2 - x0", 2))
    assert is_zero_dimensional(G)
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


def _spoly(f, g):
    (ef, cf), (eg, cg) = f.leading(), g.leading()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    field = f.field
    sf = f.shift(tuple(l - e for l, e in zip(lcm, ef)), field.inv(cf))
    sg = g.shift(tuple(l - e for l, e in zip(lcm, eg)), field.inv(cg))
    return sf - sg


def test_buchberger_criterion_on_output():
    rng = random.Random(2)
    for field in (QQ, GF(DEFAULT_PRIME)):
        for _ in range(6):
            gens = [random_poly(field, 3, 3, 4, rng) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            G = groebner(Ideal.of(gens))
            for a in range(len(G.basis)):
                for b in range(a + 1, len(G.basis)):
                    s = _spoly(G.basis[a], G.basis[b])
                    assert normal_form(s, G).is_zero()


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
    assert is_zero_dimensional(GB(qq("x0", 2), qq("x1", 2)))
    assert not is_zero_dimensional(GB(qq("x0", 2)))


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
    G = groebner(Ideal.of([e1, e2, chart]))
    assert is_zero_dimensional(G)


def test_quotient_dimension_examples():
    assert quotient_dimension(GB(qq("x0^2", 2), qq("x1", 2))) == 2
    assert quotient_dimension(GB(qq("x0 - 5", 2), qq("x1 - 7", 2))) == 1
    with pytest.raises(DegenerateInputError):
        quotient_dimension(GB(qq("x0", 2)))


def test_quotient_dimension_order_independent():
    rng = random.Random(41)
    field = GF(DEFAULT_PRIME)
    for _ in range(6):
        gens = [random_poly(field, 2, 3, 4, rng) + gfp(f"x0^{d}", 2)
                for d in (3, 4)] + [random_poly(field, 2, 3, 3, rng) + gfp("x1^3", 2)]
        I = Ideal.of(gens)
        a, b = groebner(I, DEGREVLEX), groebner(I, LEX)
        if is_zero_dimensional(a):
            assert quotient_dimension(a) == quotient_dimension(b)


def test_standard_monomials_box():
    G = GB(qq("x0^2", 2), qq("x1^3", 2))
    assert len(standard_monomials(G)) == 6


def test_ideal_dimension_examples():
    assert ideal_dimension(GB(qq("x0", 3))) == 2
    assert ideal_dimension(GB(qq("x0", 2), qq("x1", 2))) == 0
    assert ideal_dimension(GB(qq("x0 - 1", 1), qq("x0", 1))) == -1
    # cone over the three singular points of the coordinate triangle
    assert ideal_dimension(GB(*gradient(qq("x0*x1*x2")))) == 1


def test_is_reduced_zero_dim_examples(Fp):
    assert is_reduced_zero_dim(GB(gfp("x0 - 1"), gfp("x1 - 2"), gfp("x2 - 3")),
                               SeedStream(1))
    one_var = groebner(Ideal.of([MultiPoly.from_terms(Fp, 1, [((2,), 1)])]))
    assert not is_reduced_zero_dim(one_var, SeedStream(1))


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
        G = groebner(Ideal.of([e1, e2, chart]))
        assert is_zero_dimensional(G)
        assert quotient_dimension(G) == 9
        assert is_reduced_zero_dim(G, rng)


def test_pair_cap_is_reported():
    gens = [gfp("x0^4 + x1^3*x2 - x0*x1*x2"), gfp("x1^4 - x0^2*x2^2 + x2^4"),
            gfp("x0^2*x1^2 - x2^4 + x0*x2^3")]
    with pytest.raises(ResourceLimitError):
        groebner(Ideal.of(gens), max_pairs=2)
