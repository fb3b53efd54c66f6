"""Command-line front door.

Verbs: polar (degrees of a weighted polar map), gauss (degrees of the Gauss
map of the induced foliation), foliation (singular-scheme degree on the
plane), verify (identity suites).  Exit code 0 on success or a passing
verification, 1 on computation or verification failure, 2 on usage errors.
The S-pair cap that POLARDEG_MAX_PAIRS sets is read by the Groebner engine
itself; exceeding it ends the run in a reported error.
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
from .parse import emit_report, parse_poly, parse_weights
from .polar import (DEFAULT_TRIALS, WeightedFunction, map_degree,
                    polar_degrees_profile, weighted_polar_map)
from .verify import SUITES

_VAR_RE = re.compile(r"x(\d+)")


def _infer_nvars(texts) -> int:
    top = -1
    for text in texts:
        for m in _VAR_RE.finditer(text):
            top = max(top, int(m.group(1)))
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
    weights = parse_weights(weights_text) if weights_text else (1,) * len(polys)
    if len(weights) != len(polys):
        raise PolardegError(
            f"{len(polys)} polynomials but {len(weights)} weights")
    nvars = args.nvars or _infer_nvars(polys)
    factors = [parse_poly(text, nvars, QQ) for text in polys]
    return polys, factors, weights, nvars


def _print_human(reports, label):
    for r in reports if isinstance(reports, (list, tuple)) else [reports]:
        trial_values = " ".join("-" if t.value is None else str(t.value)
                                for t in r.trials)
        flag = "stable" if r.stable else "UNSTABLE"
        value = "?" if r.value is None else r.value
        print(f"{label}_{r.i} = {value}  [{flag}; trials: {trial_values}]")


def _report_status(reports) -> int:
    reports = reports if isinstance(reports, (list, tuple)) else [reports]
    ok = all(r.stable and r.value is not None for r in reports)
    return 0 if ok else 1


def _cmd_polar(args) -> int:
    polys, factors, weights, nvars = _collect_input(args)
    field = GF(args.prime)
    W = WeightedFunction.of(factors, weights)
    if args.i is not None:
        report = map_degree(weighted_polar_map(W), args.i, trials=args.trials,
                            seed=args.seed, field=field)
    else:
        report = polar_degrees_profile(W, trials=args.trials, seed=args.seed, field=field)
    if args.json:
        print(emit_report(report, command="polar", polys=polys,
                          weights=[str(w) for w in weights], nvars=nvars,
                          field=field))
    else:
        _print_human(report, "deg")
    return _report_status(report)


def _build_foliation(W: WeightedFunction):
    if W.total_degree == 0:
        return foliation_from_form(logarithmic_form(W))
    return associated_foliation(W)


def _cmd_gauss(args) -> int:
    polys, factors, weights, nvars = _collect_input(args)
    field = GF(args.prime)
    fol = _build_foliation(WeightedFunction.of(factors, weights))
    k = args.k if args.k is not None else fol.ambient_dim
    i = args.i if args.i is not None else 0
    report = e_degree(fol, k, i, trials=args.trials, seed=args.seed, field=field)
    if args.json:
        print(emit_report(report, command=f"gauss(k={k}, i={i})", polys=polys,
                          weights=[str(w) for w in weights], nvars=nvars,
                          field=field))
    else:
        print(f"foliation: ambient P^{fol.ambient_dim}, degree {fol.degree}")
        _print_human(report, f"e^{k}")
    return _report_status(report)


def _cmd_foliation(args) -> int:
    if not args.sing_degree:
        raise PolardegError("nothing to do: pass --sing-degree")
    polys, factors, weights, nvars = _collect_input(args)
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
        doc = {
            "command": "foliation --sing-degree",
            "input": {"polys": polys, "weights": [str(w) for w in weights],
                      "nvars": nvars},
            "field": {"kind": field.kind},
            "value": value,
            "degree": fol.degree,
            "status": "ok",
        }
        if field.modulus is not None:
            doc["field"]["prime"] = field.modulus
        print(json.dumps(doc, indent=2))
    else:
        print(f"foliation degree: {fol.degree}")
        print(f"singular scheme degree: {value}")
    return 0


def _cmd_verify(args) -> int:
    field = GF(args.prime)
    kwargs = dict(trials=args.trials, seed=args.seed, field=field)
    if args.suite == "resonance" and args.k is not None:
        kwargs["ks"] = (args.k,)
    outcomes = SUITES[args.suite](**kwargs)
    if args.json:
        doc = {
            "command": f"verify {args.suite}",
            "field": {"kind": field.kind, "prime": field.modulus},
            "outcomes": [
                {"claim": o.claim, "instance": o.instance,
                 "left": list(o.left), "right": list(o.right),
                 "passed": o.passed, "label": o.label}
                for o in outcomes],
            "status": "ok" if all(o.passed for o in outcomes) else "error",
        }
        print(json.dumps(doc, indent=2))
    else:
        for o in outcomes:
            print(o.line())
    return 0 if all(o.passed for o in outcomes) else 1


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
    try:
        return args.func(args)
    except PolardegError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"status": "error", "message": str(exc)}, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
