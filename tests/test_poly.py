"""Field and polynomial substrate: arithmetic, calculus, gcd, sampling."""

import random
from fractions import Fraction
from itertools import product
from math import isqrt, prod

import pytest

from _oracles import (euler_contraction_by_shifts, eval_poly, is_homogeneous,
                      substitute_termwise)
from conftest import gfp, qq, random_poly
from polardeg import fields
from polardeg.errors import DegenerateInputError, FieldMismatchError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.parse import parse_poly
from polardeg.poly import (MultiPoly, euler_contraction, exact_divide,
                           gcd_multivariate, gradient, homogeneous_degree,
                           linear_combination, substitute_all)
from polardeg.rand import SeedStream, random_scalar


def test_field_spec_rejects_bad_moduli():
    with pytest.raises(DegenerateInputError):
        GF(1000000)            # composite
    with pytest.raises(DegenerateInputError):
        GF(65537)              # prime but too small
    assert GF(DEFAULT_PRIME).modulus == DEFAULT_PRIME


def test_field_range_is_checked_before_primality(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primality test run on an out-of-range modulus {n}")

    monkeypatch.setattr(fields, "is_prime", refuse)
    huge = 10**4000 + 1
    with pytest.raises(DegenerateInputError,
                       match="^modulus of 13288 bits does not fit in 62 bits$"):
        fields.PrimeField(huge)
    with pytest.raises(DegenerateInputError, match="^modulus of 63 bits does not fit"):
        fields.PrimeField(fields.MAX_PRIME)
    for small in (65537, 1000000, -5):
        with pytest.raises(DegenerateInputError, match="too small"):
            fields.PrimeField(small)


def test_field_range_boundaries():
    with pytest.raises(DegenerateInputError, match="does not fit in 62 bits"):
        fields.PrimeField(2**62)
    largest = 4611686018427387847       # the largest prime below 2^62
    assert fields.PrimeField(largest).modulus == largest
    assert fields.PrimeField(fields.MIN_PRIME).modulus == fields.MIN_PRIME


# composite moduli in range, as factorizations: 1000005 has a small factor,
# and the others are strong pseudoprimes to the first 2 to 11 of the 12
# Miller-Rabin bases, so only a later base refuses them; the last is below 2^62
COMPOSITE_MODULI = {
    1000005: (3, 5, 66667),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


@pytest.mark.parametrize("n", sorted(COMPOSITE_MODULI))
def test_a_composite_modulus_in_range_is_refused(n):
    assert prod(COMPOSITE_MODULI[n]) == n and fields.MIN_PRIME <= n < fields.MAX_PRIME
    assert not fields.is_prime(n)
    with pytest.raises(DegenerateInputError, match=f"^modulus {n} is not prime$"):
        GF(n)


def test_is_prime_agrees_with_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))

    assert all(fields.is_prime(n) == by_trial(n) for n in range(20000))


def test_add_cancellation_and_identity():
    assert qq("x0 + x1") + qq("0 - x1") == qq("x0")
    p = qq("x0^2 - 3*x1")
    assert p + qq("0") == p


def test_add_modular_reduction():
    seven_ish = GF(DEFAULT_PRIME)
    a = MultiPoly.from_terms(seven_ish, 1, [((1,), DEFAULT_PRIME - 2)])
    b = MultiPoly.from_terms(seven_ish, 1, [((1,), 4)])
    assert (a + b).terms == {(1,): 2}


def test_add_rejects_mismatch():
    with pytest.raises(FieldMismatchError):
        qq("x0") + gfp("x0")
    with pytest.raises(FieldMismatchError):
        qq("x0", 2) + qq("x0", 3)


def test_mul_examples():
    assert qq("x0") * qq("x1") == qq("x0*x1")
    assert qq("x0 + x1") * qq("x0 - x1") == qq("x0^2 - x1^2")
    p = qq("2*x0^3 - x2")
    assert p * qq("1") == p


def test_mul_degree_additive_on_homogeneous():
    p, q = qq("x0*x1 + x2^2"), qq("x0 + x1")
    assert (p * q).total_degree() == 3
    assert is_homogeneous(p * q)


def test_partial_derivative_examples():
    assert qq("x0^2*x1").diff(0) == qq("2*x0*x1")
    assert qq("x1^3").diff(0).is_zero()
    assert qq("x0*x1*x2").diff(2) == qq("x0*x1")
    with pytest.raises(ValueError):
        qq("x0").diff(3)


def test_partials_commute():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(QQ, 3, 5, 6, rng)
        for i in range(3):
            for j in range(3):
                assert p.diff(i).diff(j) == p.diff(j).diff(i)


def test_euler_contraction_examples():
    assert euler_contraction([qq("x1", 2), qq("0 - x0", 2)]).is_zero()
    assert euler_contraction([qq("x0", 2), qq("x1", 2)]) == qq("x0^2 + x1^2", 2)
    F = qq("x0*x1*x2")
    assert euler_contraction(gradient(F)) == F.scale(Fraction(3))


def test_euler_identity_random_homogeneous():
    # contraction of the gradient returns deg(F) * F, exactly, both fields
    rng = random.Random(7)
    for field in (QQ, GF(DEFAULT_PRIME)):
        for _ in range(20):
            d = rng.randrange(1, 5)
            items = []
            for _ in range(5):
                e0 = rng.randrange(d + 1)
                e1 = rng.randrange(d + 1 - e0)
                items.append(((e0, e1, d - e0 - e1), field.from_int(rng.randrange(1, 9))))
            p = MultiPoly.from_terms(field, 3, items)
            if p.is_zero():
                continue
            assert euler_contraction(gradient(p)) == p.scale(field.from_int(d))


def test_euler_contraction_errors():
    with pytest.raises(ValueError):
        euler_contraction([qq("x0"), qq("x1^2"), qq("x2")])
    with pytest.raises(FieldMismatchError):
        euler_contraction([qq("x0", 2)])


def test_euler_contraction_matches_shift_and_add():
    # coefficients in -2..2 over few monomials cancel often, so zero results
    # and zero terms come up; mod p the large ones overflow p when summed
    rng = random.Random(11)
    for field in (QQ, GF(DEFAULT_PRIME)):
        top = 3 if field == QQ else DEFAULT_PRIME
        zeros = 0
        for _ in range(60):
            nv, d = rng.randrange(2, 5), rng.randrange(3)
            monos = [e for e in product(range(d + 1), repeat=nv) if sum(e) == d]
            forms = [MultiPoly.from_terms(field, nv, [
                (rng.choice(monos), field.from_int(rng.randrange(-top + 1, top)))
                for _ in range(rng.randrange(4))]) for _ in range(nv)]
            got = euler_contraction(forms)
            assert got == euler_contraction_by_shifts(forms)
            assert all(c != field.zero() for c in got.terms.values())
            zeros += got.is_zero()
        # a form that descends: x1*g dx0 - x0*g dx1 + 0 dx2
        g = qq("x0^2 + 3*x1*x2").to_field(field)
        x0, x1 = (MultiPoly.variable(field, 3, v) for v in (0, 1))
        assert euler_contraction([x1 * g, -(x0 * g), MultiPoly.zero(field, 3)]).is_zero()
        assert zeros
    with pytest.raises(FieldMismatchError):
        euler_contraction([qq("x0", 2), gfp("x1", 2)])
    with pytest.raises(FieldMismatchError):
        euler_contraction([qq("x0", 2), qq("x1", 3)])


def test_ring_axioms_on_random_triples():
    rng = random.Random(3)
    for field in (QQ, GF(DEFAULT_PRIME)):
        for _ in range(15):
            a = random_poly(field, 2, 3, 4, rng)
            b = random_poly(field, 2, 3, 4, rng)
            c = random_poly(field, 2, 3, 4, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_gcd_examples():
    assert gcd_multivariate(qq("x0*x1"), qq("x0*x2")) == qq("x0")
    assert gcd_multivariate(qq("x0^2 - x1^2"), qq("x0 - x1")) == qq("x0 - x1")
    assert gcd_multivariate(qq("x0*x1"), qq("0")) == qq("x0*x1")
    assert gcd_multivariate(qq("0"), qq("0")).is_zero()


def test_gcd_of_log_form_coefficients_is_unit():
    # expand the log-derivative coefficients of the coordinate triangle by hand
    a0 = qq("x1") * qq("x2")
    a1 = qq("x0") * qq("x2")
    a2 = qq("x0") * qq("x1")
    g = gcd_multivariate(gcd_multivariate(a0, a1), a2)
    assert g == qq("1")


def test_gcd_divides_and_cofactors_coprime():
    rng = random.Random(23)
    for field in (QQ, GF(DEFAULT_PRIME)):
        for _ in range(12):
            g = random_poly(field, 2, 2, 3, rng)
            a = random_poly(field, 2, 2, 3, rng)
            b = random_poly(field, 2, 2, 3, rng)
            p, q = g * a, g * b
            if p.is_zero() or q.is_zero():
                continue
            d = gcd_multivariate(p, q)
            ca = exact_divide(p, d)
            cb = exact_divide(q, d)
            assert ca * d == p and cb * d == q
            assert gcd_multivariate(ca, cb).is_constant()


def substitute_linear(polys, M):
    """Each poly at x = M z, through the pipeline's linear-restriction kernel."""
    variables = [MultiPoly.variable(polys[0].field, len(M[0]), j) for j in range(len(M[0]))]
    return substitute_all(polys, [linear_combination(row, variables) for row in M])


def test_substitute_linear_examples():
    one = Fraction(1)
    assert substitute_linear([qq("x0^2", 1)], [[one]]) == [qq("x0^2", 1)]
    M = [[one, Fraction(0)], [one, one]]
    assert substitute_linear([qq("x0*x1", 2)], M) == [qq("x0^2 + x0*x1", 2)]
    with pytest.raises(FieldMismatchError):
        substitute_linear([qq("x0*x1", 2)], [[one, one]])


def test_substitute_linear_random_restriction_keeps_degree():
    # restriction of a random cubic in 4 variables to a random plane,
    # cross-checked against evaluation at random points
    rng = random.Random(5)
    F = GF(DEFAULT_PRIME)
    p = MultiPoly.from_terms(F, 4, (
        (tuple(e), rng.randrange(1, DEFAULT_PRIME))
        for e in [(3, 0, 0, 0), (0, 2, 1, 0), (1, 1, 1, 0), (0, 0, 1, 2), (1, 0, 0, 2)]))
    M = [[rng.randrange(DEFAULT_PRIME) for _ in range(3)] for _ in range(4)]
    [q] = substitute_linear([p], M)
    assert q.total_degree() == 3 and is_homogeneous(q)
    for _ in range(5):
        z = [rng.randrange(DEFAULT_PRIME) for _ in range(3)]
        x = [sum(M[r][c] * z[c] for c in range(3)) % DEFAULT_PRIME for r in range(4)]
        assert eval_poly(q, z, DEFAULT_PRIME) == eval_poly(p, x, DEFAULT_PRIME)


def test_substitute_linear_functorial_composition():
    # restricting twice equals restricting along the composed embedding
    rng = random.Random(61)
    F = GF(DEFAULT_PRIME)
    p = random_poly(F, 4, 3, 6, rng)
    M = [[rng.randrange(DEFAULT_PRIME) for _ in range(3)] for _ in range(4)]
    N = [[rng.randrange(DEFAULT_PRIME) for _ in range(2)] for _ in range(3)]
    MN = [[sum(M[r][t] * N[t][c] for t in range(3)) % DEFAULT_PRIME
           for c in range(2)] for r in range(4)]
    assert substitute_linear(substitute_linear([p], M), N) == substitute_linear([p], MN)


def test_substitute_linear_is_ring_homomorphism():
    rng = random.Random(29)
    F = GF(DEFAULT_PRIME)
    M = [[rng.randrange(DEFAULT_PRIME) for _ in range(2)] for _ in range(3)]
    for _ in range(10):
        a = random_poly(F, 3, 3, 4, rng)
        b = random_poly(F, 3, 3, 4, rng)
        sa, sb, s_sum, s_prod = substitute_linear([a, b, a + b, a * b], M)
        assert s_sum == sa + sb
        assert s_prod == sa * sb


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["QQ", "GFp"])
def test_substitute_all_matches_termwise_reference(field):
    # random polys under affine images with constants (as in a fiber trial),
    # sometimes of degree 2, sometimes with a zero image; zero and constant
    # polys ride along, and all polys of one call share the kernel's memo
    rng = random.Random(43)
    zero = field.zero()
    for trial in range(40):
        nsrc, ntgt = rng.randrange(1, 5), rng.randrange(1, 4)
        polys = [random_poly(field, nsrc, 5, rng.randrange(1, 9), rng) for _ in range(4)]
        polys += [MultiPoly.zero(field, nsrc), MultiPoly.constant(field, nsrc, field.from_int(-7))]
        images = [random_poly(field, ntgt, 1 + trial % 2, rng.randrange(1, 5), rng)
                  for _ in range(nsrc)]
        if trial % 4 == 0:
            images[rng.randrange(nsrc)] = MultiPoly.zero(field, ntgt)
        got = substitute_all(polys, images)
        assert got == [substitute_termwise(p, images) for p in polys]
        assert got[4].is_zero() and got[5] == MultiPoly.constant(field, ntgt, field.from_int(-7))
        assert all(c != zero for g in got for c in g.terms.values())


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["QQ", "GFp"])
def test_substitute_all_cancellation(field):
    def P(text, nvars):
        return parse_poly(text, nvars, field)

    images = [P("x0 + 1", 2), P("x0 + 1", 2), P("1 - x0 + x1", 2)]
    polys = [P("x0 - x1", 3), P("x0^3 - x0*x1^2", 3), P("(x1 + x2)^3 - 8*x2^3", 3),
             P("x0^2*x2 + x1", 3)]
    got = substitute_all(polys, images)
    assert got == [substitute_termwise(p, images) for p in polys]
    assert got[0].is_zero() and got[1].is_zero()
    assert got[2] == (P("2 + x1", 2) ** 3) - P("8", 2) * (P("1 - x0 + x1", 2) ** 3)
    assert all(c != field.zero() for g in got for c in g.terms.values())
    # one poly through MultiPoly.substitute is the same composition
    assert polys[3].substitute(images) == got[3]
    with pytest.raises(FieldMismatchError):
        substitute_all(polys, images[:2])


def test_homogeneous_degree():
    assert homogeneous_degree(qq("x0^2 + x1*x2")) == 2
    assert homogeneous_degree(qq("0")) == -1
    with pytest.raises(DegenerateInputError, match="not homogeneous"):
        homogeneous_degree(qq("x0 + x1^2"))


def test_random_stream_determinism():
    F = GF(DEFAULT_PRIME)
    a = [random_scalar(F, SeedStream(42)) for _ in range(10)]
    b = [random_scalar(F, SeedStream(42)) for _ in range(10)]
    assert a == b


def test_random_streams_distinct_seeds_collide_nowhere_close():
    F = GF(DEFAULT_PRIME)
    s1, s2 = SeedStream(1), SeedStream(2)
    a = [random_scalar(F, s1) for _ in range(10**4)]
    b = [random_scalar(F, s2) for _ in range(10**4)]
    assert a != b
    collisions = sum(x == y for x, y in zip(a, b))
    assert collisions < 10


def test_random_scalar_rejects_rationals():
    with pytest.raises(DegenerateInputError):
        random_scalar(QQ, SeedStream(0))
