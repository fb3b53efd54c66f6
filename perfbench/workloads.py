"""The benchmark's workloads: inputs built from a seed, one pass, and the gate.

Each workload drives polardeg only through its public functions, looked up as
module attributes at call time so that the span wrappers of `tracing` see
every call.  Every degree report and identity check is one operation; it fails
when the report is unstable or missing, a check fails, a value differs from
its pin in `pins.json`, or polardeg raises.

Why these workloads:
- acceptance: the paper's whole claim set, as `tests/test_acceptance.py`
  computes it, at two primes with one memo per prime.  Many small Groebner
  bases (at most 10 elements) and 5 same-shape trials per level, so per-call
  overhead, the memo and validation gcds show here.
- ladder: one trial of deg_0 for dense random forms of growing size.  One
  large Groebner basis per case; gcd, foliations and the memo do no work, so
  an optimisation of those layers should leave it unchanged.
- sections: the Gauss-degree table e_i^k of P^4 foliations restricted to a
  generic P^k.  Substitution into degree-4/5 forms, gcd clearing of the
  restricted 1-form and positive-dimensional coefficient ideals dominate.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import polardeg  # noqa: E402

if Path(polardeg.__file__).resolve().parent != SRC / "polardeg":
    raise ImportError(f"polardeg was imported from {polardeg.__file__}, not {SRC}")

errors = importlib.import_module("polardeg.errors")
fields = importlib.import_module("polardeg.fields")
foliations = importlib.import_module("polardeg.foliations")
parse = importlib.import_module("polardeg.parse")
poly = importlib.import_module("polardeg.poly")
polar = importlib.import_module("polardeg.polar")
verify = importlib.import_module("polardeg.verify")

PRIMARY_PRIME = 2147483647
SECOND_PRIME = 1000003
PINS_FILE = HERE / "pins.json"

# the order of tests/test_acceptance.py:_compute_all
ACCEPTANCE_ORDER = ("dolgachev", "smooth-profiles", "invariance", "gauss-theorem",
                    "polar-relation", "corollary-deg", "resonance", "product-bound")

# (name, n, d): a dense random form of degree d on P^n; deg_0 = (d-1)^n
LADDER = (("P2-sextic", 2, 6), ("P2-septic", 2, 7),
          ("P3-quartic", 3, 4), ("P3-quintic", 3, 5))

# weighted surfaces in P^3; their associated foliations live on P^4
SURFACES = (
    ("fermat-quartic", ("x0^4 + x1^4 + x2^4 + x3^4",), (1,)),
    ("cubic-plus-plane", ("x0^3 + x1^3 + x2^3 + x3^3", "x0 + 2*x1 + 3*x2 + 5*x3"),
     (2, 3)),
    ("five-planes", ("x0", "x1", "x2", "x3", "x0 + 2*x1 + 3*x2 + 4*x3"),
     (1, 2, 3, 4, 5)),
)
SECTION_LEVELS = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


class Gate:
    """Counts operations and names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _value(report):
    """A report's degree, or None when it is unstable."""
    return report.value if report.stable else None


def _qq(text: str, nvars: int):
    return parse.parse_poly(text, nvars, fields.QQ)


# -- acceptance ---------------------------------------------------------------

def build_acceptance(seed: int, prime: int | None, smoke: bool) -> dict:
    if prime is not None:
        raise ValueError("acceptance always runs at both primes")
    maps = {}
    if not smoke:
        for d in (2, 3, 4):
            W = polar.WeightedFunction.of([_qq(f"x0^{d} + x1^{d} + x2^{d}", 3)], [1])
            maps[d] = polar.weighted_polar_map(W)
    order = ("dolgachev",) if smoke else ACCEPTANCE_ORDER
    return {"seed": seed, "maps": maps, "order": order}


def _acceptance_at(inputs, field, region) -> tuple:
    """Value signature {suite: {key: value}} at one prime, and reports referenced."""
    seed, memo = inputs["seed"], {}
    signature, referenced = {}, 0
    for suite in inputs["order"]:
        values = signature[suite] = {}
        if suite == "smooth-profiles":
            for d, m in inputs["maps"].items():
                for i in (0, 1):
                    try:
                        report = polar.map_degree(m, i, seed=1000 * seed + 100 + i,
                                                  field=field)
                        values[f"fermat-{d}|deg_{i}"] = _value(report)
                    except errors.PolardegError as exc:
                        values[f"fermat-{d}|deg_{i}"] = f"error: {exc}"
            continue
        with region(f"verify.{suite}"):
            try:
                outcomes = verify.SUITES[suite](seed=seed, field=field, cache=memo)
            except errors.PolardegError as exc:
                values["error"] = str(exc)
                continue
        for o in outcomes:
            values[f"{o.claim}|{o.instance}"] = [list(o.left), list(o.right), o.passed]
            referenced += len(o.reports)
    return signature, referenced


def run_acceptance(inputs, region, pins, gate) -> int:
    referenced = 0
    signatures = []
    for prime in (PRIMARY_PRIME, SECOND_PRIME):
        signature, refs = _acceptance_at(inputs, fields.GF(prime), region)
        referenced += refs
        signatures.append(signature)
        for suite, values in signature.items():
            want = pins["acceptance"][suite]
            for key in sorted(set(want) | set(values)):
                got = values.get(key)
                ok = key in want and got == want[key]
                if isinstance(got, list):
                    ok = ok and got[2] is True
                gate.check(f"{suite}|{key} @ {prime}: {got}", ok)
    gate.check("two-prime agreement", signatures[0] == signatures[1])
    return referenced


# -- ladder -------------------------------------------------------------------

def _monomials(nvars: int, d: int):
    if nvars == 1:
        yield (d,)
        return
    for a in range(d, -1, -1):
        for rest in _monomials(nvars - 1, d - a):
            yield (a,) + rest


def build_ladder(seed: int, prime: int | None, smoke: bool) -> dict:
    field = fields.GF(prime or PRIMARY_PRIME)
    rng = random.Random(seed)
    cases = []
    for name, n, d in LADDER[:1] if smoke else LADDER:
        items = [(e, field.from_int(rng.randrange(field.modulus)))
                 for e in _monomials(n + 1, d)]
        form = poly.MultiPoly.from_terms(field, n + 1, items)
        cases.append((name, polar.polar_map(form), rng.getrandbits(32)))
    return {"field": field, "cases": cases}


def run_ladder(inputs, region, pins, gate) -> int:
    for name, m, trial_seed in inputs["cases"]:
        try:
            got = _value(polar.map_degree(m, 0, trials=1, seed=trial_seed,
                                          field=inputs["field"]))
        except errors.PolardegError as exc:
            got = f"error: {exc}"
        gate.check(f"{name}: deg_0 = {got}", got == pins["ladder"][name])
    return 0


# -- sections -----------------------------------------------------------------

def build_sections(seed: int, prime: int | None, smoke: bool) -> dict:
    surfaces = []
    for name, texts, weights in SURFACES[:1] if smoke else SURFACES:
        W = polar.WeightedFunction.of([_qq(t, 4) for t in texts], weights)
        surfaces.append((name, foliations.associated_foliation(W)))
    levels = SECTION_LEVELS[:2] if smoke else SECTION_LEVELS
    return {"seed": seed, "field": fields.GF(prime or PRIMARY_PRIME),
            "surfaces": surfaces, "levels": levels}


def run_sections(inputs, region, pins, gate) -> int:
    seed, field = inputs["seed"], inputs["field"]
    for idx, (name, fol) in enumerate(inputs["surfaces"]):
        e = {}
        for k, i in inputs["levels"]:
            try:
                e[k, i] = _value(foliations.e_degree(
                    fol, k, i, seed=1000 * seed + 100 * idx + 10 * k + i, field=field))
            except errors.PolardegError as exc:
                e[k, i] = f"error: {exc}"
            gate.check(f"{name}: e_{i}^{k} = {e[k, i]}",
                       e[k, i] == pins["sections"][name][f"e_{i}^{k}"])
        if (3, 2) in e:
            ints = all(isinstance(v, int) for v in e.values())
            gate.check(f"{name}: e_1^3 = e_0^2 + e_0^3",
                       ints and e[3, 1] == e[2, 0] + e[3, 0])
            gate.check(f"{name}: e_2^3 = e_1^2", ints and e[3, 2] == e[2, 1])
    return 0


WORKLOADS = {
    "acceptance": (build_acceptance, run_acceptance),
    "ladder": (build_ladder, run_ladder),
    "sections": (build_sections, run_sections),
}
