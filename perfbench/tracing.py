"""Spans around polardeg's public functions, installed from outside the package.

A span records (name, start, end, parent, note).  Spans stay in memory and
are written out when the pass ends.  A span's self time is its duration minus
the durations of its direct children; calls are nested and single-threaded,
so children never overlap and the self times of all spans under the root add
up to the root's duration exactly.

Every wrapper is installed under each name that refers to the original, in
every polardeg module: `polar` and `foliations` bind `groebner` by name, and
the package `__init__` re-exports it, which is why `polardeg.groebner` is the
function and the module is reached through `importlib.import_module`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from statistics import median, quantiles
from time import perf_counter

# (module, attribute path); the span name is "<module short name>.<path>"
TRACED = (
    ("polardeg.groebner", "groebner"),
    ("polardeg.groebner", "is_reduced_zero_dim"),
    ("polardeg.groebner", "quotient_dimension"),
    ("polardeg.groebner", "ideal_dimension"),
    ("polardeg.poly", "gcd_multivariate"),
    ("polardeg.poly", "gcd_many"),
    ("polardeg.poly", "MultiPoly.substitute"),
    ("polardeg.linalg", "rank"),
    ("polardeg.linalg", "solve_affine"),
    ("polardeg.polar", "WeightedFunction.of"),
    ("polardeg.polar", "weighted_polar_map"),
    ("polardeg.polar", "map_degree"),
    ("polardeg.foliations", "associated_foliation"),
    ("polardeg.foliations", "foliation_from_form"),
    ("polardeg.foliations", "integrability_defect"),
    ("polardeg.foliations", "restrict_to_generic_subspace"),
    ("polardeg.foliations", "e_degree"),
    ("polardeg.foliations", "singular_scheme_degree_p2"),
)

# the untraced passes time one degree value at this boundary and nothing else
LATENCY_ONLY = (("polardeg.polar", "map_degree"),)

DEGREE_SPAN = "polar.map_degree"
ROOT_SPAN = "bench.pass"
SUITE_PREFIX = "verify."

# counters read from return values at the boundary, stored as the span note
_NOTES = {
    "groebner.groebner": lambda G: len(G.basis),
    "groebner.quotient_dimension": lambda dim: dim,
    "polar.map_degree": lambda report: (len(report.trials),
                                        sum(not t.reduced for t in report.trials)),
}

_MARK = "_perfbench_span"


def span_name(module: str, path: str) -> str:
    return module.rsplit(".", 1)[1] + "." + path


class Recorder:
    """In-memory span list; the open spans form a stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def region(self, name):
        """Open a span for the enclosed block; yields its record."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        """fn inside a span; the note of the span is read from the result."""
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.region(name) as rec:
                out = fn(*args, **kwargs)
            if note is not None:
                rec[4] = note(out)
            return out

        setattr(traced, _MARK, name)
        return traced


def _polardeg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polardeg" or name.startswith("polardeg."))]


@contextmanager
def installed(recorder: Recorder, targets):
    """Swap each target for a span wrapper; restore every original on exit."""
    patches = []
    try:
        for module, path in targets:
            name = span_name(module, path)
            mod = importlib.import_module(module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    wrapper = recorder.wrap(name, raw)
                setattr(cls, attr, wrapper)
                patches.append((cls, attr, raw))
                continue
            original = getattr(mod, path)
            wrapper = recorder.wrap(name, original)
            for owner in _polardeg_modules():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        patches.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def leftover_wrappers() -> list:
    """Names still bound to a span wrapper in any polardeg module or class."""
    found = []
    for mod in _polardeg_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{value.__name__}.{cattr}")
    return found


def percentile_90(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans, reports_referenced: int) -> dict:
    """Per-layer calls, self times and counters of one traced pass."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[idx]
        total[name] += end - start

    out = {}
    for module, path in TRACED:
        name = span_name(module, path)
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    gb = [end - start for name, start, end, _, _ in spans if name == "groebner.groebner"]
    out["groebner.groebner.p50_s"] = median(gb) if gb else 0.0
    out["groebner.groebner.p90_s"] = percentile_90(gb) if gb else 0.0
    out["groebner.basis_len.max"] = max(_notes(spans, "groebner.groebner"), default=0)
    out["groebner.quotient_dim.max"] = max(_notes(spans, "groebner.quotient_dimension"),
                                           default=0)

    # trials and rejected trials from the TrialOutcomes of every report
    degree = _notes(spans, DEGREE_SPAN)
    trials = sum(t for t, _ in degree)
    rejected = sum(r for _, r in degree)
    out["polar.trials"] = trials
    out["polar.trial_reject_ratio"] = rejected / trials if trials else 0.0
    in_degree = sum(1 for name, _, _, parent, _ in spans if name == "groebner.groebner"
                    and _has_ancestor(spans, parent, DEGREE_SPAN))
    out["polar.groebner_per_trial"] = in_degree / trials if trials else 0.0

    # calls that verify made itself (its memo missed) against the reports
    # its outcomes reference
    made = sum(1 for name, _, _, parent, _ in spans
               if name in (DEGREE_SPAN, "foliations.e_degree") and parent >= 0
               and spans[parent][0].startswith(SUITE_PREFIX))
    out["verify.memo_hit_ratio"] = (1 - made / reports_referenced
                                    if reports_referenced else 0.0)
    for suite in importlib.import_module("polardeg.verify").SUITES:
        out[f"{SUITE_PREFIX}{suite}.s"] = total[SUITE_PREFIX + suite]

    out["trace.wall_s"] = total[ROOT_SPAN]
    out["bench.remainder_s"] = self_s[ROOT_SPAN]
    out["trace.self_sum_s"] = sum(self_s.values())
    return out


def _notes(spans, name) -> list:
    """Notes of the spans of one name whose call returned."""
    return [n for s, _, _, _, n in spans if s == name and n is not None]


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
