"""The result records: named tuples with read-only fields, compared by value,
and an import that loads neither `dataclasses` nor `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

import polardeg
from conftest import qq
from polardeg import verify
from polardeg.fields import GF, DEFAULT_PRIME
from polardeg.foliations import associated_foliation
from polardeg.groebner import groebner
from polardeg.polar import WeightedFunction, map_degree, weighted_polar_map


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S keeps site from loading modules of its own before the import
    src = str(Path(polardeg.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import polardeg, polardeg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _one_of_each() -> list:
    W = WeightedFunction.of([qq("x0*x1*x2")], [1])
    m = weighted_polar_map(W)
    report = map_degree(m, 0, trials=1, field=GF(DEFAULT_PRIME))
    outcome = verify.verify_corollary_deg(W, 0, trials=1)
    basis = groebner([qq("x0^2 - x1*x2"), qq("x1^2 - x0*x2")])
    return [report.trials[0], report, outcome, W, m, associated_foliation(W), basis]


def test_every_field_of_every_record_is_read_only():
    records = _one_of_each()
    assert {type(r).__name__ for r in records} == {
        "TrialOutcome", "DegreeReport", "VerificationOutcome", "WeightedFunction",
        "RationalMapRep", "LogFoliation", "GroebnerBasis"}
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_a_filled_reduction_cache_changes_neither_equality_nor_the_memo():
    Fp = GF(DEFAULT_PRIME)
    W = WeightedFunction.of([qq("x0*x1*x2")], [1])
    for build in (weighted_polar_map, associated_foliation):
        filled, fresh = build(W), build(W)
        reduced = filled.to_field(Fp)
        assert filled.to_field(Fp) is reduced and "_reductions" not in vars(fresh)
        assert filled == fresh and hash(filled) == hash(fresh)
        calls = []

        def degree(obj, *, trials, seed, field):
            calls.append(obj)
            return len(calls)

        cache = {}
        got = [verify._memo(degree, obj, trials=1, seed=0, field=Fp, cache=cache)
               for obj in (filled, fresh)]
        assert got == [1, 1] and len(calls) == 1


def test_bases_with_different_spans_are_equal():
    f, g = qq("x0^2 - x1*x2"), qq("x1^3 + 2*x2^3 - x0*x1*x2")
    G, H = groebner([f, g, f], [[1, 0, -1], [0, 1]]), groebner([g])
    assert G.span != H.span
    assert G == H and not G != H and hash(G) == hash(H)
    assert G != groebner([f]) and not G == groebner([f])
