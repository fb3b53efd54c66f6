"""Command-line interface: flags, exit codes, JSON determinism."""

import hashlib
import json

import pytest

from polardeg.cli import MAX_NVARS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_polar_single_level(capsys):
    code, out, _ = run_cli(capsys, "polar", "--poly", "x0*x1*x2", "--i", "0")
    assert code == 0
    assert "deg_0 = 1" in out


def test_polar_profile_json(capsys):
    code, out, _ = run_cli(capsys, "polar", "--poly", "x0^2+x1^2+x2^2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"] == [1, 1]
    assert doc["status"] == "ok"
    assert doc["input"]["nvars"] == 3


def test_polar_json_byte_identical(capsys):
    argv = ["polar", "--poly", "x0^3+x1^3+x2^3", "--i", "0", "--json", "--seed", "11"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_polar_rejects_zero_total_degree(capsys):
    code, _, err = run_cli(capsys, "polar", "--poly", "x0", "--poly", "x1",
                           "--weights", "1,-1")
    assert code == 1
    assert "total weighted degree" in err


def test_polar_single_level_rejects_zero_total_degree(capsys):
    code, out, err = run_cli(capsys, "polar", "--poly", "x0", "--poly", "x1",
                             "--poly", "x0+x1", "--weights", "1,1,-2", "--i", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: total weighted degree is zero: ")


def test_polar_rejects_nonreduced_factors(capsys):
    # powers of variables violate the squarefree-factor contract up front
    code, _, err = run_cli(capsys, "polar", "--poly", "x0^2", "--poly", "x1^3",
                           "--weights", "1,-2/3")
    assert code == 1
    assert "squarefree" in err


def test_polar_rejects_zero_weight(capsys):
    code, _, err = run_cli(capsys, "polar", "--poly", "x0", "--poly", "x1",
                           "--weights", "1,0")
    assert code == 1
    assert "nonzero" in err


def test_polar_parse_error_is_reported(capsys):
    code, _, err = run_cli(capsys, "polar", "--poly", "x0 x1")
    assert code == 1
    assert "column" in err


def test_polar_coefficient_denominator_divisible_by_prime_is_an_error(capsys):
    code, out, _ = run_cli(capsys, "polar", "--poly", "1/1000003*x0^2 + x1^2 + x2^2",
                           "--prime", "1000003", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error" and "1000003" in doc["message"]


def test_polar_refuses_component_vanishing_modulo_the_prime(capsys):
    argv = ["polar", "--poly", "x0^2 + x1^2 + 1000003*x2^2", "--i", "0"]
    code, out, err = run_cli(capsys, *argv, "--prime", "1000003")
    assert code == 1 and out == ""
    assert "bad reduction" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "deg_0 = 1" in out


def test_polar_refuses_common_factor_gained_modulo_the_prime(capsys):
    # mod 1000003 the partials of the cubic all vanish on x2 = 0
    argv = ["polar", "--poly", "x0*x2^2 + x1*x2^2 + 1000003*x0^3", "--i", "0"]
    code, out, err = run_cli(capsys, *argv, "--prime", "1000003")
    assert code == 1 and out == ""
    assert "bad reduction" in err and "common factor" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "deg_0 = 2" in out


@pytest.mark.parametrize("argv", [
    ["--poly", "x0", "--nvars", "1"],                   # a form on P^0: no level to count
    ["--poly", "x0*x1*x2", "--trials", "0"],
    ["--poly", "x0*x1*x2", "--trials", "-3"],
], ids=["p0", "zero-trials", "negative-trials"])
def test_polar_without_a_trial_to_run_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, "polar", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    code, out, _ = run_cli(capsys, "polar", *argv, "--json")
    assert code == 1
    assert json.loads(out)["status"] == "error"


BAD_INPUTS = {
    "unparsable": ["--poly", "x0 x1"],
    "wrong-nvars": ["--poly", "x0*x1*x2", "--nvars", "2"],
    "nvars-zero": ["--poly", "x0*x1*x2", "--nvars", "0"],
    "nvars-negative": ["--poly", "x0*x1*x2", "--nvars", "-2"],
    "not-homogeneous": ["--poly", "x0^2 + x1"],
    "prime-below-min": ["--poly", "x0*x1*x2", "--prime", "7"],
    "prime-huge": ["--poly", "x0^2+x1^2+x2^2", "--prime", str(10**4000 + 1)],
    "zero-weight": ["--poly", "x0", "--poly", "x1", "--poly", "x2", "--weights", "1,0,1"],
    "weights-empty": ["--poly", "x0^2+x1^2+x2^2", "--weights", ""],
    "level-out-of-range": ["--poly", "x0*x1*x2", "--i", "7"],
    "section-out-of-range": ["--poly", "x0*x1*x2", "--k", "9"],
    "component-vanishes": ["--poly", "x0^2 + x1^2 + 1000003*x2^2", "--prime", "1000003"],
    "common-factor": ["--poly", "x0*x2^2 + x1*x2^2 + 1000003*x0^3", "--prime", "1000003"],
    "denominator": ["--poly", "1/1000003*x0^2 + x1^2 + x2^2", "--prime", "1000003"],
    "pair-cap": ["--poly", "x0^3+x1^3+x2^3+x3^3"],
    "pair-cap-not-a-number": ["--poly", "x0^4 + x1^4 + x2^4"],
    "pair-cap-superscript": ["--poly", "x0^4 + x1^4 + x2^4"],
    "too-few-lines": ["--k", "1"],
    "superscript-exponent": ["--poly", "x0^\u00b2+x1^2+x2^2"],
    "superscript-variable": ["--poly", "x0*x1*x\u00b2"],
    "deep-nesting": ["--poly", "(" * 10000 + "x0" + ")" * 10000 + "*x1*x2"],
    "variable-index-too-long": ["--poly", "x0*x1*x" + "1" * 5000],
    "variable-index-too-large": ["--poly", "x0*x1*x" + "2" * 30],
    "nvars-too-large": ["--poly", "x0*x1*x2", "--nvars", "2" * 30],
}
BAD_ENV = {"pair-cap": "1", "pair-cap-not-a-number": "many",
           "pair-cap-superscript": "\u00b2"}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("verb", ["polar", "gauss", "foliation", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_never_leaks_an_exception(capsys, monkeypatch, case, verb, json_flag):
    if case in BAD_ENV:
        monkeypatch.setenv("POLARDEG_MAX_PAIRS", BAD_ENV[case])
    head = {"foliation": ["foliation", "--sing-degree"],
            "verify": ["verify", "resonance"]}.get(verb, [verb])
    try:
        code = main(head + BAD_INPUTS[case] + json_flag)
    except SystemExit as exc:       # argparse usage error
        code = exc.code
    out = capsys.readouterr()
    assert code in (1, 2)
    assert "Traceback" not in out.out + out.err


def test_nvars_below_one_is_refused_by_name(capsys):
    code, _, err = run_cli(capsys, "polar", "--poly", "x0*x1*x2", "--nvars", "0")
    assert code == 1
    assert err == "error: --nvars must be at least 1, got 0\n"


def test_empty_weights_are_refused_as_a_malformed_rational(capsys):
    # an empty --weights is text to parse, as " " is, not an absent option
    for verb in ("polar", "gauss"):
        code, out, err = run_cli(capsys, verb, "--poly", "x0^2+x1^2+x2^2", "--weights", "")
        assert (code, out, err) == (1, "", "error: malformed rational '' (line 1, column 1)\n")


def test_variable_count_above_the_limit_is_refused_by_name(capsys):
    code, _, err = run_cli(capsys, "polar", "--poly", f"x0*x1*x{MAX_NVARS}")
    assert (code, err) == (1, f"error: {MAX_NVARS + 1} variables exceed the limit "
                              f"of {MAX_NVARS}\n")
    code, _, err = run_cli(capsys, "polar", "--poly", "x0*x1*x2", "--nvars", "10" * 15)
    assert (code, err) == (1, f"error: {'10' * 15} variables exceed the limit "
                              f"of {MAX_NVARS}\n")
    code, _, err = run_cli(capsys, "polar", "--poly", "x0*x1*x" + "1" * 5000)
    assert (code, err) == (1, "error: number too long (5000 digits) (line 1, column 7)\n")


def test_a_huge_prime_is_refused_by_its_bit_length(capsys):
    code, out, err = run_cli(capsys, "polar", "--poly", "x0^2+x1^2+x2^2",
                             "--prime", str(10**4000 + 1))
    assert (code, out) == (1, "")
    assert err == "error: modulus of 13288 bits does not fit in 62 bits\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polar", "--i", "0", "--profile", "--poly", "x0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-verb"])
    assert exc.value.code == 2


def test_verify_k_outside_resonance_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dolgachev", "--k", "3"])
    assert exc.value.code == 2
    assert "--k applies to the resonance suite only" in capsys.readouterr().err


def test_gauss_defaults_and_k(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--poly", "x0*x1*x2", "--k", "2", "--i", "0")
    assert code == 0
    assert "degree 2" in out        # the attached triangle foliation
    assert "e^2_0 = 2" in out


def test_gauss_foliation_from_spec_string(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--foliation-from", "x0; x1; x2; 1,1,1",
                           "--k", "3", "--i", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert doc["command"] == "gauss(k=3, i=1)"


def test_foliation_sing_degree(capsys):
    code, out, _ = run_cli(capsys, "foliation", "--sing-degree",
                           "--poly", "x0", "--poly", "x1", "--poly", "x2",
                           "--weights", "1,1,-2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3 and doc["degree"] == 1


def test_foliation_requires_descent(capsys):
    code, _, err = run_cli(capsys, "foliation", "--sing-degree",
                           "--poly", "x0", "--poly", "x1", "--poly", "x2",
                           "--weights", "1,1,1")
    assert code == 1
    assert "sum to zero" in err


def test_env_pair_cap_is_honored(capsys, monkeypatch):
    # validation builds no basis; a fiber basis of this cubic's polar map
    # reduces more than 1 S-pair
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", "1")
    code, _, err = run_cli(capsys, "polar", "--poly", "x0^3+x1^3+x2^3+x3^3", "--i", "0")
    assert code == 1
    assert "cap" in err


def test_env_pair_cap_reaches_the_validation_bases(capsys, monkeypatch):
    # the squarefree and common-factor checks build no basis, so the cap
    # trips in a fiber basis of the polar map, which reduces more than 1
    monkeypatch.setenv("POLARDEG_MAX_PAIRS", "1")
    code, out, _ = run_cli(capsys, "polar", "--poly", "x0^3+x1^3+x2^3+x3^3",
                           "--i", "0", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert "S-pair cap exceeded (1)" in doc["message"]


def test_quotient_cap_ends_a_large_count(capsys):
    # the plain fiber at i = 0 has 59^2 points, past the quotient cap: the
    # count is refused at once instead of running for minutes
    code, out, err = run_cli(capsys, "polar", "--poly", "x0^60+x1^60+x2^60", "--i", "0")
    assert (code, out) == (1, "")
    assert err == "error: quotient cap exceeded (1024 standard monomials)\n"


def test_verify_dolgachev(capsys):
    code, out, _ = run_cli(capsys, "verify", "dolgachev")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 6 and all(l.startswith("PASS") for l in lines)


def test_verify_resonance_single_k_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "resonance", "--k", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    claims = {o["claim"] for o in doc["outcomes"]}
    assert claims == {"resonance-example", "resonance-singular-degree"}


def test_verify_resonance_redraws_an_empty_fiber():
    # at this seed one draw of a trial meets the fiber nowhere; counted as a
    # reduced 0 it outvoted the pencil's degree
    assert main(["verify", "resonance", "--seed", "77", "--prime", "1000003"]) == 0


# at this seed one e_degree trial of the Fermat cubic's foliation (cubic,
# i=1) draws a genuine fiber point p with ell0(phi(p)) = 0: the cone with
# ell0(phi) = 1 would drop it and count 5 where the others count 6, and the
# plain count, which removes the base points by a gcd, keeps it
def test_verify_polar_relation_keeps_every_fiber_point():
    assert main(["verify", "polar-relation", "--seed", "42", "--prime", "1000003"]) == 0


# sha256 of the default --json stdout: a change to the engine must leave every
# printed degree, trial outcome and claim of these commands as it is
PINNED_JSON = {
    "polar-fermat-cubic": (["polar", "--poly", "x0^3+x1^3+x2^3", "--json", "--seed", "3"],
                           "81e87a16fc15fc33e1ea3f32b0c0c8dc9a0b74933e788f3f7a16d0c6d3b8fa75"),
    "verify-corollary-deg": (["verify", "corollary-deg", "--json"],
                             "1a2bab1c169b4c8c7ff073fc41c77ab6859bf43bbfebc54ee30d2dc2c9f55fb2"),
    "verify-dolgachev": (["verify", "dolgachev", "--json"],
                         "97a1fd312f978cee6dd7a7d5bbb428d20acb154ed47cc50d049712d750d7b7e1"),
    "verify-gauss-theorem": (["verify", "gauss-theorem", "--json"],
                             "ea1ca9cd1772ac6637785397e6005665e80e819e015b5a01977af25e44cd3ee7"),
    "verify-invariance": (["verify", "invariance", "--json"],
                          "c756a1a245bac772a3b32af5a652a10649cbb87af1ff03dee15dc17e2cdb608c"),
    "verify-polar-relation": (["verify", "polar-relation", "--json"],
                              "5740a43a06fa9bb9246067c8335063e2350ec5a9e2a87ea79e1c8dbf361672f1"),
    "verify-product-bound": (["verify", "product-bound", "--json"],
                             "7c4d74b5b0b2ee9fe285fa2b92ff73fca0df7d8b7d3f4a8f44dc7037d7528193"),
    "verify-resonance-k2": (["verify", "resonance", "--k", "2", "--json"],
                            "ee86e355e7664d9a2b7612df20d822af46b7f117001f88374f808a7314a3d57c"),
    "gauss-triangle": (["gauss", "--poly", "x0*x1*x2", "--k", "2", "--i", "1", "--json"],
                       "ea051dc45e8212f4016f17f6dbadddcb9b886cedb35b74e0b243547ca11ef3ae"),
    "polar-weighted": (["polar", "--poly", "x2", "--poly", "x1^2-x0*x2", "--weights", "3,1",
                        "--json"],
                       "c53b73f61e2cad9ffac9a2fbce3be9989ca675829ad20affba02633058e52b69"),
    "foliation-sing-degree": (["foliation", "--sing-degree", "--poly", "x0", "--poly", "x1",
                               "--poly", "x2", "--weights", "1,1,-2", "--json"],
                              "89148e7b0c5b81087c9fa99642814074d0c2121f868484a07227270b86f588f1"),
    "gauss-foliation-from": (["gauss", "--foliation-from", "x0; x1; x2; 1,1,1", "--k", "3",
                              "--i", "1", "--json"],
                             "8bc4f024d23856fb34bcc78dc4dcdad09deb6b96665b00dc22255aad1af422c8"),
    # the second prime, where a wrong coefficient of the separating form is likeliest to show
    "polar-fermat-cubic-p2": (["polar", "--poly", "x0^3+x1^3+x2^3", "--json", "--seed", "3",
                               "--prime", "1000003"],
                              "a625460d0d4cff6c1607e31602cf362880ba1fa1f8b6e387a5f702ec2807e46b"),
    "verify-dolgachev-p2": (["verify", "dolgachev", "--json", "--prime", "1000003"],
                            "5e2dcdee66d99e3674d6649bdc8ad405dce6e30602e8d66ad594ab8c357e158b"),
    # a Gauss degree of a P^4 foliation cut to a generic P^3, at the second prime
    "gauss-fermat-quartic-p2": (["gauss", "--poly", "x0^4+x1^4+x2^4+x3^4", "--k", "3",
                                 "--i", "0", "--prime", "1000003", "--json"],
                                "cffd4a6d89d9acdae69bf1362329607302a08789e082e66d36dbd4925aaccf60"),
    # smooth over QQ, but a triangle of lines mod 1000003: its polar map has
    # base points at this prime and none at the default one
    "polar-cubic-triangle-p2": (["polar", "--poly", "x0^3 + x1^3 + x2^3 - 1498503*x0*x1*x2",
                                 "--prime", "1000003", "--json"],
                                "1abdf8d3b612df880741887b27a06df1fd0dfcd889c8b092539829c126d413e2"),
    # the polar map's base locus is the six coordinate lines: its fiber
    # system is infinite at i = 0, finite with base points at i = 1 and free
    # of them at i = 2
    "polar-tetrahedron": (["polar", "--poly", "x0*x1*x2*x3", "--json"],
                          "8aa176326807b5095359d9909860bf51859c0f018ee881969e5060d7f9a2c5e6"),
}


@pytest.mark.parametrize("name", list(PINNED_JSON))
def test_default_json_output_is_pinned(capsys, name):
    argv, digest = PINNED_JSON[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
