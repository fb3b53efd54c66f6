"""Command-line front door.

Verbs: polar (degrees of a weighted polar map), gauss (degrees of the Gauss
map of the induced foliation), foliation (singular-scheme degree on the
plane), verify (identity suites).  Exit code 0 on success or a passing
verification, 1 on computation or verification failure, 2 on usage errors.
The S-pair cap that POLARDEG_MAX_PAIRS sets is read by the Groebner engine
itself; exceeding it ends the run in a reported error.
With --json each verb prints one document, built here and written by _emit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import PolardegError
from .fields import DEFAULT_PRIME, GF, QQ
from .foliations import (associated_foliation, e_degree, foliation_from_form,
                         logarithmic_form, singular_scheme_degree_p2)
from .parse import _int, _tokenize, parse_poly, parse_weights
from .polar import (DEFAULT_TRIALS, WeightedFunction, map_degree,
                    polar_degrees_profile, weighted_polar_map)
from .verify import SUITES

# most variables an input may have, inferred or given by --nvars
MAX_NVARS = 100


def _infer_nvars(texts) -> int:
    """One more than the largest index of a variable x<index> in the texts."""
    top = -1
    for text in texts:
        for tok in _tokenize(text):
            if tok.kind == "name" and tok.text[0] == "x" and tok.text[1:].isdecimal():
                top = max(top, _int(tok.text[1:], tok))
    if top < 0:
        raise PolardegError("no variables found in the input polynomials")
    return top + 1


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="prime modulus for the randomized computations")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON report")


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--poly", action="append", default=[],
                   help="a homogeneous factor (repeatable)")
    p.add_argument("--weights", default=None,
                   help="comma-separated nonzero rational weights")
    p.add_argument("--foliation-from", dest="foliation_from", default=None,
                   help="semicolon-separated factors, last segment the weights")
    p.add_argument("--nvars", type=int, default=None,
                   help="ambient variable count (default: inferred)")


def _collect_input(args):
    """(factors, weights, source): the parsed input and its "input" document."""
    polys = list(args.poly)
    weights_text = args.weights
    if args.foliation_from:
        segments = [s.strip() for s in args.foliation_from.split(";") if s.strip()]
        if len(segments) >= 2 and re.fullmatch(r"[-0-9/,\s]+", segments[-1]):
            weights_text = segments[-1]
            polys.extend(segments[:-1])
        else:
            polys.extend(segments)
    if not polys:
        raise PolardegError("no input polynomials (use --poly or --foliation-from)")
    weights = (1,) * len(polys) if weights_text is None else parse_weights(weights_text)
    if len(weights) != len(polys):
        raise PolardegError(
            f"{len(polys)} polynomials but {len(weights)} weights")
    nvars = _infer_nvars(polys) if args.nvars is None else args.nvars
    if nvars < 1:
        raise PolardegError(f"--nvars must be at least 1, got {nvars}")
    if nvars > MAX_NVARS:
        raise PolardegError(f"{nvars} variables exceed the limit of {MAX_NVARS}")
    factors = [parse_poly(text, nvars, QQ) for text in polys]
    source = {"polys": polys, "weights": [str(w) for w in weights], "nvars": nvars}
    return factors, weights, source


def _emit(doc: dict):
    """The one JSON writer: every document the CLI prints goes through it."""
    print(json.dumps(doc, indent=2))


def _field_doc(field) -> dict:
    doc = {"kind": field.kind}
    if field.modulus is not None:
        doc["prime"] = field.modulus
    return doc


def _degree_doc(command: str, source: dict, field, reports, profile: bool) -> dict:
    """The document of one report, or of a profile: "degrees" in place of
    "i" and "value", and the trials of every level in order."""
    doc: dict = {"command": command, "input": source, "field": _field_doc(field)}
    if profile:
        doc["degrees"] = [r.value for r in reports]
    else:
        doc["i"], doc["value"] = reports[0].i, reports[0].value
    doc["trials"] = [{"seed": t.seed, "value": t.value, "zero_dim": t.zero_dim,
                      "reduced": t.reduced} for r in reports for t in r.trials]
    doc["stable"] = all(r.stable for r in reports)
    if any(r.value is None for r in reports):
        doc["status"] = "error"
        doc["message"] = "no majority value across trials"
    else:
        doc["status"] = "ok" if doc["stable"] else "unstable"
    return doc


def _finish_degrees(args, command: str, source: dict, field, reports,
                    profile: bool, label: str) -> int:
    """Print the degree document (--json) or one line per report; 0 iff all are stable."""
    if args.json:
        _emit(_degree_doc(command, source, field, reports, profile))
    else:
        for r in reports:
            trial_values = " ".join("-" if t.value is None else str(t.value)
                                    for t in r.trials)
            flag = "stable" if r.stable else "UNSTABLE"
            value = "?" if r.value is None else r.value
            print(f"{label}_{r.i} = {value}  [{flag}; trials: {trial_values}]")
    return 0 if all(r.stable for r in reports) else 1


def _cmd_polar(args) -> int:
    factors, weights, source = _collect_input(args)
    field = GF(args.prime)
    W = WeightedFunction.of(factors, weights)
    if args.i is not None:
        reports = [map_degree(weighted_polar_map(W), args.i, trials=args.trials,
                              seed=args.seed, field=field)]
    else:
        reports = polar_degrees_profile(W, trials=args.trials, seed=args.seed, field=field)
    return _finish_degrees(args, "polar", source, field, reports, args.i is None, "deg")


def _build_foliation(W: WeightedFunction):
    if W.total_degree == 0:
        return foliation_from_form(logarithmic_form(W))
    return associated_foliation(W)


def _cmd_gauss(args) -> int:
    factors, weights, source = _collect_input(args)
    field = GF(args.prime)
    fol = _build_foliation(WeightedFunction.of(factors, weights))
    k = args.k if args.k is not None else fol.ambient_dim
    i = args.i if args.i is not None else 0
    report = e_degree(fol, k, i, trials=args.trials, seed=args.seed, field=field)
    if not args.json:
        print(f"foliation: ambient P^{fol.ambient_dim}, degree {fol.degree}")
    return _finish_degrees(args, f"gauss(k={k}, i={i})", source, field, [report],
                           False, f"e^{k}")


def _cmd_foliation(args) -> int:
    if not args.sing_degree:
        raise PolardegError("nothing to do: pass --sing-degree")
    factors, weights, source = _collect_input(args)
    field = GF(args.prime) if args.prime is not None else QQ
    factors = [f.to_field(field) for f in factors]
    W = WeightedFunction.of(factors, weights)
    if W.total_degree != 0:
        raise PolardegError(
            "the weighted degrees must sum to zero for a plane foliation "
            f"(got {W.total_degree})")
    fol = foliation_from_form(logarithmic_form(W))
    value = singular_scheme_degree_p2(fol)
    if args.json:
        _emit({"command": "foliation --sing-degree", "input": source,
               "field": _field_doc(field), "value": value, "degree": fol.degree,
               "status": "ok"})
    else:
        print(f"foliation degree: {fol.degree}")
        print(f"singular scheme degree: {value}")
    return 0


def _cmd_verify(args) -> int:
    field = GF(args.prime)
    kwargs = dict(trials=args.trials, seed=args.seed, field=field)
    if args.k is not None:
        kwargs["ks"] = (args.k,)
    outcomes = SUITES[args.suite](**kwargs)
    passed = all(o.passed for o in outcomes)
    if args.json:
        _emit({"command": f"verify {args.suite}", "field": _field_doc(field),
               "outcomes": [{"claim": o.claim, "instance": o.instance,
                             "left": list(o.left), "right": list(o.right),
                             "passed": o.passed, "label": o.label}
                            for o in outcomes],
               "status": "ok" if passed else "error"})
    else:
        for o in outcomes:
            print(o.line())
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polardeg",
        description="Exact degrees of polar maps and Gauss maps of logarithmic foliations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_polar = sub.add_parser("polar", help="degrees of a weighted polar map")
    _add_input_flags(p_polar)
    p_polar.add_argument("--i", type=int, default=None,
                         help="single level (default: all levels 0..n-1)")
    _add_common(p_polar)
    p_polar.set_defaults(func=_cmd_polar)

    p_gauss = sub.add_parser("gauss", help="degrees of the induced Gauss map")
    _add_input_flags(p_gauss)
    p_gauss.add_argument("--k", type=int, default=None,
                         help="generic section dimension (default: no restriction)")
    p_gauss.add_argument("--i", type=int, default=None, help="level (default 0)")
    _add_common(p_gauss)
    p_gauss.set_defaults(func=_cmd_gauss)

    p_fol = sub.add_parser("foliation", help="plane foliation invariants")
    _add_input_flags(p_fol)
    p_fol.add_argument("--sing-degree", action="store_true",
                       help="degree of the singular scheme on the plane")
    p_fol.add_argument("--prime", type=int, default=None,
                       help="optional prime (default: exact rationals)")
    p_fol.add_argument("--json", action="store_true")
    p_fol.set_defaults(func=_cmd_foliation)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--k", type=int, default=None,
                          help="restrict the resonance suite to one k")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify" and args.k is not None and args.suite != "resonance":
        parser.error(f"verify --k applies to the resonance suite only, not {args.suite}")
    try:
        return args.func(args)
    except PolardegError as exc:
        if getattr(args, "json", False):
            _emit({"status": "error", "message": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
