"""Logarithmic forms, induced foliations, restrictions, e-degrees."""

import pytest

from _oracles import full_embedding_section
from conftest import ScriptedStream, gfp, qq
from polardeg import foliations
from polardeg.errors import DegenerateInputError, FieldMismatchError, GenericityError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.foliations import (LogFoliation, associated_foliation, e_degree,
                                 expected_plane_singular_degree,
                                 foliation_from_form, gauss_map,
                                 integrability_defect, logarithmic_form,
                                 restrict_to_generic_subspace,
                                 singular_scheme_degree_p2)
from polardeg.groebner import groebner, ideal_dimension
from polardeg.poly import euler_contraction, gcd_many
from polardeg.polar import RationalMapRep, WeightedFunction, map_degree, polar_map
from polardeg.verify import corpus_foliations, resonance_plane_foliation


def wf(texts, weights, nvars=3):
    return WeightedFunction.of([qq(t, nvars) for t in texts], weights)


@pytest.mark.parametrize("degree", [
    lambda q: map_degree(polar_map(qq("x0*x1*x2")).to_field(q), 0, field=GF(DEFAULT_PRIME)),
    lambda q: e_degree(associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1])).to_field(q),
                       3, 0, field=GF(DEFAULT_PRIME)),
], ids=["map_degree", "e_degree"])
def test_degree_refuses_an_object_over_another_prime(degree):
    with pytest.raises(FieldMismatchError):
        degree(GF(1000003))


@pytest.mark.parametrize("build", [
    lambda p: WeightedFunction.of([p], [1]),
    lambda p: RationalMapRep.of([p, qq("x1^2"), qq("x2^2")]),
    polar_map,
    # the gcd x2 + 1 would clear to a homogeneous form: checked before clearing
    lambda p: foliation_from_form([p, qq("0 - x0*x2 - x0"), qq("0")]),
], ids=["weighted-function", "rational-map", "polar-map", "foliation-from-form"])
def test_containers_refuse_a_non_homogeneous_poly(build):
    with pytest.raises(DegenerateInputError, match="not homogeneous"):
        build(qq("x1*x2 + x1"))


def test_logarithmic_form_projective_line():
    coeffs = logarithmic_form(wf(["x0", "x1"], [1, -1], nvars=2))
    assert [str(c) for c in coeffs] == ["x1", "-x0"]


def test_logarithmic_form_euler_formula():
    W = wf(["x0", "x1", "x2"], [1, 1, 1])
    coeffs = logarithmic_form(W)
    assert euler_contraction(coeffs) == qq("3*x0*x1*x2")


def test_logarithmic_form_resonant_contraction_vanishes():
    W = wf(["x0", "x1", "x0 + x1"], [1, 1, -2])
    coeffs = logarithmic_form(W)
    assert euler_contraction(coeffs).is_zero()


def test_foliation_from_form_projective_line():
    fol = foliation_from_form([qq("x1", 2), qq("0 - x0", 2)])
    assert fol.degree == 0 and fol.ambient_dim == 1


def test_foliation_from_form_clears_gcd_once():
    # x0 * (pencil form): clearing recovers the unit-gcd representative
    fol = foliation_from_form([qq("x0*x1"), qq("0 - x0^2"), qq("0")])
    assert [str(c) for c in fol.coeffs] == ["x1", "-x0", "0"]
    assert gcd_many(fol.coeffs).is_constant()


def test_foliation_from_form_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        foliation_from_form([qq("x0", 2), qq("x1", 2)])      # contraction nonzero
    with pytest.raises(DegenerateInputError):
        foliation_from_form([qq("0", 2), qq("0", 2)])
    with pytest.raises(DegenerateInputError, match="degrees differ"):
        foliation_from_form([qq("x1"), qq("0 - x0^2"), qq("0")])


def test_foliation_from_form_rejects_nonintegrable():
    # a contact-type form on P^3: contraction vanishes, wedge does not
    coeffs = [qq("x1", 4), qq("0 - x0", 4), qq("x3", 4), qq("0 - x2", 4)]
    assert euler_contraction(coeffs).is_zero()
    assert any(not d.is_zero() for d in integrability_defect(coeffs))
    with pytest.raises(DegenerateInputError):
        foliation_from_form(coeffs)


def test_foliation_singular_sets_have_codimension_two(Fp):
    # a cleared form has gcd 1, so its coefficient ideal has no hypersurface
    # component; foliation_from_form relies on this and checks it no more
    fols = list(corpus_foliations().values())
    fols += [resonance_plane_foliation(k) for k in (2, 3)]
    p4 = associated_foliation(wf(["x0^4 + x1^4 + x2^4 + x3^4"], [1], nvars=4))
    fols += [restrict_to_generic_subspace(p4.to_field(Fp), k, seed=k) for k in (2, 3)]
    assert {f.ambient_dim for f in fols} == {2, 3, 4}
    for fol in fols:
        G = groebner(fol.coeffs)
        assert ideal_dimension(G) <= fol.nvars - 2


def test_associated_foliation_conic():
    fol = associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1]))
    assert [str(c) for c in fol.coeffs] == \
        ["x0*x3", "x1*x3", "x2*x3", "-x0^2 - x1^2 - x2^2"]
    assert fol.degree == 1
    assert euler_contraction(fol.coeffs).is_zero()


def test_associated_foliation_triangle_displayed_formula():
    fol = associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1]))
    assert [str(c) for c in fol.coeffs] == \
        ["x1*x2*x3", "x0*x2*x3", "x0*x1*x3", "-3*x0*x1*x2"]
    assert fol.degree == 2


def test_associated_foliation_rejects_zero_total_degree():
    with pytest.raises(DegenerateInputError):
        associated_foliation(wf(["x0", "x1"], [1, -1], nvars=2))


# the weighted surfaces of P^3 whose associated P^4 foliations the
# sections benchmark restricts
SECTION_SURFACES = (
    (["x0^4 + x1^4 + x2^4 + x3^4"], [1]),
    (["x0^3 + x1^3 + x2^3 + x3^3", "x0 + 2*x1 + 3*x2 + 5*x3"], [2, 3]),
    (["x0", "x1", "x2", "x3", "x0 + 2*x1 + 3*x2 + 4*x3"], [1, 2, 3, 4, 5]),
)


def test_integrability_of_constructed_foliations(Fp):
    # associated_foliation and restrict_to_generic_subspace do not re-check
    # integrability or the contraction; both hold by construction
    fols = [associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1])),
            associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1])),
            foliation_from_form(logarithmic_form(wf(["x0", "x1", "x0 + x1"], [1, 1, -2])))]
    fols += corpus_foliations().values()
    fols += [resonance_plane_foliation(k) for k in (2, 3)]
    for texts, weights in SECTION_SURFACES:
        p4 = associated_foliation(wf(texts, weights, nvars=4))
        fols += [p4] + [restrict_to_generic_subspace(p4.to_field(Fp), k, seed=k)
                        for k in (2, 3)]
    assert {f.ambient_dim for f in fols} == {2, 3, 4}
    for fol in fols:
        assert all(d.is_zero() for d in integrability_defect(fol.coeffs))
        assert euler_contraction(fol.coeffs).is_zero()


def test_constructed_foliations_are_not_rechecked(Fp, monkeypatch):
    def refuse(coeffs):
        raise AssertionError("integrability is known by construction")

    monkeypatch.setattr(foliations, "integrability_defect", refuse)
    for texts, weights in SECTION_SURFACES:
        p4 = associated_foliation(wf(texts, weights, nvars=4)).to_field(Fp)
        for k in (1, 2, 3):
            assert restrict_to_generic_subspace(p4, k, seed=k).ambient_dim == k
    with pytest.raises(AssertionError):
        foliation_from_form([qq("x1", 2), qq("0 - x0", 2)])


def test_reduction_is_checked_once_per_prime():
    fol = associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1]))
    p = GF(1000003)
    assert fol.to_field(p) is fol.to_field(p)
    assert fol.to_field(p).coeffs == tuple(c.to_field(p) for c in fol.coeffs)


def test_gauss_map_components():
    fol = foliation_from_form([qq("x1", 2), qq("0 - x0", 2)])
    m = gauss_map(fol)
    assert [str(c) for c in m.components] == ["x1", "-x0"]
    assert m.source_dim == 1


def _section_foliations():
    """The sections benchmark's P^4 foliations and the P^3/P^4 corpus."""
    fols = {f"surface-{idx}": associated_foliation(wf(texts, weights, nvars=4))
            for idx, (texts, weights) in enumerate(SECTION_SURFACES)}
    return fols | corpus_foliations()


def test_restriction_preserves_degree(Fp, monkeypatch):
    streams = []

    def counted(seed):
        streams.append(ScriptedStream(seed))
        return streams[-1]

    monkeypatch.setattr(foliations, "SeedStream", counted)
    for fol in _section_foliations().values():
        fol, n = fol.to_field(Fp), fol.ambient_dim
        for k in range(2, n):
            for seed in (1, 2, 3):
                r = restrict_to_generic_subspace(fol, k, seed)
                assert r.degree == fol.degree and r.ambient_dim == k
                assert euler_contraction(r.coeffs).is_zero()
                # the first graph block drawn is kept
                assert streams[-1].calls == (n - k) * (k + 1)


def test_restriction_pins_the_graph_embedding(Fp, monkeypatch):
    # x3 = z0 on the conic's foliation: the coefficient of dz0 is
    # x0*x3 - (x0^2 + x1^2 + x2^2) = -(z1^2 + z2^2), made monic
    streams = []

    def scripted(seed):
        streams.append(ScriptedStream(seed, {0: 1, 1: 0, 2: 0}))
        return streams[-1]

    fol = associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1])).to_field(Fp)
    monkeypatch.setattr(foliations, "SeedStream", scripted)
    r = restrict_to_generic_subspace(fol, 2, seed=0)
    assert streams[-1].calls == 3
    assert r.degree == 1
    assert r.coeffs == tuple(gfp(t) for t in ("x1^2 + x2^2", "0 - x0*x1", "0 - x0*x2"))


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 1000003])
@pytest.mark.parametrize("name", list(_section_foliations()))
def test_graph_sections_match_full_embeddings(name, prime):
    # a graph section and a full random embedding are two draws of a generic
    # P^k: every Gauss-map degree agrees
    field = GF(prime)
    fol = _section_foliations()[name]
    n = fol.ambient_dim
    for k in range(2, n):
        oracle = full_embedding_section(fol.to_field(field), k, seed=k)
        assert oracle.degree == fol.degree
        for i in range(k):
            want = map_degree(gauss_map(oracle), i, seed=i, field=field).value
            got = e_degree(fol, k, i, seed=i, field=field).value
            assert want is not None and got == want, (k, i)


def test_restriction_redraws_a_degenerate_embedding(Fp, monkeypatch):
    streams = []

    def scripted(script):
        def make(seed):
            streams.append(ScriptedStream(seed, script))
            return streams[-1]
        return make

    fol = associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1])).to_field(Fp)
    monkeypatch.setattr(foliations, "SeedStream", scripted({}))
    want = restrict_to_generic_subspace(fol, 2, seed=5)
    assert streams[-1].calls == 3
    # a zero graph block embeds P^2 as the invariant plane x3 = 0; scripted
    # answers do not advance the generator, so the next 3 draws are the ones
    # the first call kept
    monkeypatch.setattr(foliations, "SeedStream", scripted(dict.fromkeys(range(3), 0)))
    got = restrict_to_generic_subspace(fol, 2, seed=5)
    assert streams[-1].calls == 6
    assert got.degree == fol.degree and got == want
    # every draw zero: every section is that invariant plane
    monkeypatch.setattr(foliations, "SeedStream", scripted(dict.fromkeys(range(1000), 0)))
    with pytest.raises(GenericityError, match="subspace is invariant$"):
        restrict_to_generic_subspace(fol, 2, seed=5)
    # the block (1, 0, 0) cuts the plane x3 = x0 through the singular line
    # x0 = x3 = 0: the pulled-back form gains the factor z0, and its degree
    # drops from 2 to 1, so the block is redrawn from the seeded stream
    monkeypatch.setattr(foliations, "SeedStream", scripted({0: 1, 1: 0, 2: 0}))
    got = restrict_to_generic_subspace(fol, 2, seed=5)
    assert streams[-1].calls == 6
    assert got.degree == fol.degree and got == want
    # every block (1, 0, 0): every section meets the singular line
    monkeypatch.setattr(foliations, "SeedStream",
                        scripted({c: int(c % 3 == 0) for c in range(1000)}))
    with pytest.raises(GenericityError, match="degree dropped from 2 to 1$"):
        restrict_to_generic_subspace(fol, 2, seed=5)


def test_restriction_to_line_gives_unique_foliation(Fp):
    from polardeg.parse import parse_poly
    fol = associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1])).to_field(Fp)
    r = restrict_to_generic_subspace(fol, 1, seed=4)
    assert r.degree == 0
    assert r.coeffs == (parse_poly("x1", 2, Fp), parse_poly("0 - x0", 2, Fp))


def test_restriction_bounds(Fp):
    fol = associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1])).to_field(Fp)
    with pytest.raises(ValueError):
        restrict_to_generic_subspace(fol, 3, seed=0)
    with pytest.raises(DegenerateInputError):
        restrict_to_generic_subspace(
            associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1])), 2, seed=0)


def test_e_degree_examples(Fp):
    fol = associated_foliation(wf(["x0", "x1", "x2"], [1, 1, 1]))
    assert e_degree(fol, 2, 0, field=Fp, seed=3).value == fol.degree == 2
    assert e_degree(fol, 1, 0, field=Fp, seed=3).value == 1
    lhs = e_degree(fol, 3, 1, field=Fp, seed=3).value
    rhs = (e_degree(fol, 2, 0, field=Fp, seed=4).value
           + e_degree(fol, 3, 0, field=Fp, seed=4).value)
    assert lhs == rhs == 3


def test_e_degree_bounds(Fp):
    fol = associated_foliation(wf(["x0^2 + x1^2 + x2^2"], [1]))
    with pytest.raises(ValueError):
        e_degree(fol, 4, 0, field=Fp)
    with pytest.raises(ValueError):
        e_degree(fol, 2, 2, field=Fp)


def test_singular_scheme_degree_examples():
    pencil = foliation_from_form([qq("x1"), qq("0 - x0"), qq("0")])
    assert singular_scheme_degree_p2(pencil) == 1
    triangle_type = foliation_from_form(logarithmic_form(
        wf(["x0", "x1", "x2"], [1, 1, -2])))
    assert triangle_type.degree == 1
    assert singular_scheme_degree_p2(triangle_type) == 3


def test_singular_scheme_degree_matches_chern_total():
    for k in (2, 3):
        fol = resonance_plane_foliation(k)
        assert fol.degree == k
        assert singular_scheme_degree_p2(fol) == k * k + k + 1
        assert expected_plane_singular_degree(fol.degree) == k * k + k + 1


def test_singular_scheme_degree_rejects_positive_dimensional():
    # a pencil-of-planes form restricted badly: coefficients share a zero line
    fol = foliation_from_form([qq("x1*x2"), qq("0 - x0*x2"), qq("0")])
    # gcd clearing strips x2, leaving the pencil: fabricate the degenerate
    # case directly instead
    from polardeg.foliations import LogFoliation
    bad = LogFoliation((qq("x1*x2"), qq("0 - x0*x2"), qq("0")), 1)
    with pytest.raises(DegenerateInputError):
        singular_scheme_degree_p2(bad)
    assert singular_scheme_degree_p2(fol) == 1


def test_singular_scheme_degree_past_a_hilbert_plateau():
    # 8 points on the line x0 = 0 cut by an unsaturated ideal (x0 is not in
    # it, x0 times every cubic is): the Hilbert function runs 1, 3, 5, 5, 5,
    # 6, 7, 8, 8, ... and pauses at 5 before it reaches the degree 8
    gens = ["x0^2", "x0*x1^2", "x0*x1*x2", "x0*x2^3", "x1^8 - x2^8"]
    fol = LogFoliation(tuple(qq(g) for g in gens), 1)
    assert singular_scheme_degree_p2(fol) == 8
