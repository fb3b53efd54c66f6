"""Self-tests of the benchmark on its reduced smoke inputs.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import passes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads((HERE / "results" / f"{workload}-seed3-smoke-trace{trace}.json")
                        .read_text())
    provenance = set(record["provenance"])
    assert {"commit", "python", "nproc", "cpu_model", "seed", "rerun"} <= provenance
    assert record["samples"]["passes"] and record["sample_counts"]


def _bindings():
    """Every name bound in a polardeg module or class, with its object's id."""
    out = {}
    for mod in tracing._polardeg_modules():
        for attr, value in vars(mod).items():
            out[f"{mod.__name__}.{attr}"] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, raw in vars(value).items():
                    out[f"{mod.__name__}.{value.__name__}.{cattr}"] = id(raw)
    return out


@pytest.mark.parametrize("workload", ["acceptance", "sections"])
def test_traced_pass_removes_its_wrappers(workload):
    build, _ = workloads.WORKLOADS[workload]
    inputs = build(5, None, True)
    before = _bindings()
    out = passes.run_pass(workload, inputs, True, workloads.load_pins())
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []
    layers = out["layers"]
    assert out["failed"] == 0
    assert layers["groebner.groebner.calls"] >= 1 and layers["polar.map_degree.calls"] >= 1
    # self times of every span, the bench's own remainder included, add up
    # to the traced wall time
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert layers["trace.wall_s"] == out["wall_s"]


@pytest.mark.parametrize("workload, path, wrong", [
    ("acceptance", ("acceptance", "dolgachev", "homaloidal-control|cubic"),
     [[3], [3], True]),
    ("ladder", ("ladder", "P2-sextic"), 26),
    ("sections", ("sections", "fermat-quartic", "e_0^2"), 4),
])
def test_wrong_pin_fails_the_gate(workload, path, wrong):
    pins = workloads.load_pins()
    node = pins
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = wrong
    build, _ = workloads.WORKLOADS[workload]
    out = passes.run_pass(workload, build(5, None, True), False, pins)
    assert out["failed"] >= 1
    assert any(path[-1] in label for label in out["failures"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
