"""Polynomial grammar, weight parsing, and the degree document of the CLI."""

import json
import random

import pytest

from _oracles import is_homogeneous
from conftest import random_poly
from polardeg.errors import DegenerateInputError, ParseError
from polardeg.fields import GF, QQ, DEFAULT_PRIME
from polardeg.cli import _degree_doc as _cli_degree_doc
from polardeg.parse import parse_poly, parse_weights
from polardeg.poly import poly_str
from polardeg.polar import DegreeReport, TrialOutcome


def test_parse_classification_curves():
    conic = parse_poly("x0^2 + x1^2 + x2^2", 3, QQ)
    assert is_homogeneous(conic) and conic.total_degree() == 2
    triangle = parse_poly("x0*x1*x2", 3, QQ)
    assert len(triangle.terms) == 1
    tangent = parse_poly("x2*(x1^2 - x0*x2)", 3, QQ)
    assert tangent == parse_poly("x1^2*x2 - x0*x2^2", 3, QQ)


def test_parse_rational_coefficients():
    p = parse_poly("2/3*x0 - 1/2*x1", 2, QQ)
    assert p.terms[(1, 0)] * 3 == 2


def test_parse_denominator_inverted_mod_p():
    F = GF(DEFAULT_PRIME)
    p = parse_poly("1/2*x0", 1, F)
    assert p.terms[(1,)] * 2 % DEFAULT_PRIME == 1


def test_parse_rejects_juxtaposition():
    with pytest.raises(ParseError):
        parse_poly("x0 x1", 2, QQ)
    with pytest.raises(ParseError):
        parse_poly("2x0", 1, QQ)
    with pytest.raises(ParseError):
        parse_poly("x0(x1)", 2, QQ)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + $", 1, QQ)
    assert err.value.col == 6
    with pytest.raises(ParseError) as err:
        parse_poly("x0 +\n x9", 2, QQ)
    assert err.value.line == 2


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x3", 3, QQ)
    with pytest.raises(ParseError):
        parse_poly("y", 3, QQ)


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_poly("x0^-1", 1, QQ)


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_poly("1/0", 1, QQ)


def test_parse_denominator_divisible_by_modulus_rejected():
    with pytest.raises(ParseError):
        parse_poly(f"1/{DEFAULT_PRIME}*x0", 1, GF(DEFAULT_PRIME))


def test_parse_print_round_trip_random():
    rng = random.Random(99)
    for field in (QQ, GF(DEFAULT_PRIME)):
        for _ in range(40):
            p = random_poly(field, 3, 4, 5, rng)
            text = poly_str(p)
            q = parse_poly(text, 3, field)
            assert q == p
            assert poly_str(q) == text


def test_parse_superscripts_are_refused_with_a_position():
    with pytest.raises(ParseError, match="expected nat, found '\u00b2'") as err:
        parse_poly("x0^\u00b2+x1^2+x2^2", 3, QQ)
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(ParseError, match="unknown variable") as err:
        parse_poly("x0*x1*x\u00b2", 3, QQ)
    assert (err.value.line, err.value.col) == (1, 7)


def test_parse_decimal_digits_of_any_script():
    assert parse_poly("x\u0663 + \u0662*x0", 4, QQ) == parse_poly("x3 + 2*x0", 4, QQ)


def test_parse_nesting_bound():
    assert parse_poly("(" * 200 + "x0" + ")" * 200, 1, QQ) == parse_poly("x0", 1, QQ)
    with pytest.raises(ParseError, match="nest deeper than 200") as err:
        parse_poly("\n" + "(" * 10000 + "x0" + ")" * 10000, 1, QQ)
    assert (err.value.line, err.value.col) == (2, 201)


def test_parse_number_past_the_digit_limit_is_refused():
    for text in ("x0 + " + "1" * 5000, "x0^" + "1" * 5000, "x" + "1" * 5000):
        with pytest.raises(ParseError, match="number too long"):
            parse_poly(text, 1, QQ)


# pieces of random input: the grammar's characters, blanks of several kinds,
# and names, numbers and characters that the grammar refuses
PIECES = list("x0123+-*^()/,") + [" ", "\t", "\n", "\u2003", "x1", "x2", "y", "_a",
                                  "\u00e9", "$", "12", "/0", "\u00b2", "\u0663", "x\u00b2"]


def test_random_text_parses_or_raises_parse_error():
    rng = random.Random(18)
    for field in (QQ, GF(1000003)):
        for _ in range(1000):
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 11)))
            try:
                parse_poly(text, 3, field)
            except ParseError:
                pass


def test_parse_weights_examples():
    assert parse_weights("1,1,1") == (1, 1, 1)
    w = parse_weights("1,-1,2/3")
    assert w[1] == -1 and w[2] * 3 == 2
    with pytest.raises(DegenerateInputError):
        parse_weights("1,0")
    with pytest.raises(ParseError):
        parse_weights("1,,2")


def _trial(seed, value, zero_dim=True, reduced=True):
    return TrialOutcome(seed, value, zero_dim, reduced)


def _degree_doc(report, polys=("x0",), field=GF(DEFAULT_PRIME)):
    source = {"polys": list(polys), "weights": ["1"] * len(polys), "nvars": 3}
    return json.loads(json.dumps(_cli_degree_doc("polar", source, field, [report], False)))


def test_degree_doc_schema_ok():
    rep = DegreeReport.from_trials(0, [_trial(s, 1) for s in range(5)])
    doc = _degree_doc(rep, polys=["x0^2+x1^2+x2^2"])
    assert doc["status"] == "ok" and doc["stable"] is True
    assert doc["i"] == 0 and doc["value"] == 1
    assert doc["field"] == {"kind": "prime-field", "prime": DEFAULT_PRIME}
    assert [t["value"] for t in doc["trials"]] == [1] * 5
    assert list(doc) == ["command", "input", "field", "i", "value",
                         "trials", "stable", "status"]


def test_degree_doc_empty_trials_is_error():
    rep = DegreeReport.from_trials(0, [])
    doc = _degree_doc(rep, polys=[], field=QQ)
    assert doc["status"] == "error" and doc["field"] == {"kind": "rationals"}


def test_degree_doc_mixed_trials_unstable():
    trials = [_trial(0, 2), _trial(1, 2), _trial(2, 2), _trial(3, 1), _trial(4, 2)]
    rep = DegreeReport.from_trials(1, trials)
    assert rep.value == 2 and rep.stable is False
    doc = _degree_doc(rep)
    assert doc["status"] == "unstable" and doc["stable"] is False
    assert [t["value"] for t in doc["trials"]] == [2, 2, 2, 1, 2]


def test_degree_report_majority_rule():
    # strict majority of all trials must agree with reduced outcomes
    trials = [_trial(0, 3), _trial(1, 3), _trial(2, 4, reduced=False),
              _trial(3, None, zero_dim=False, reduced=False), _trial(4, 3)]
    rep = DegreeReport.from_trials(0, trials)
    assert rep.value == 3 and not rep.stable
    split = [_trial(0, 3), _trial(1, 3), _trial(2, 4), _trial(3, 4),
             _trial(4, None, zero_dim=False, reduced=False)]
    assert DegreeReport.from_trials(0, split).value is None
    # a stable report has a value, even with reduced trials that carry no count
    countless = [_trial(0, 3), _trial(1, None), _trial(2, None)]
    rep = DegreeReport.from_trials(0, countless)
    assert rep.value is None and not rep.stable
