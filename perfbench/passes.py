"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/passes.py --workload NAME --seed N --mode setup|plain|traced

`setup` only builds the inputs.  `plain` times the pass with nothing
installed but the latency timer at `polar.map_degree`.  `traced` installs a
span wrapper on every function in `tracing.TRACED`, removes them all again
and checks that none is left.  The set-up time runs from before polardeg is
imported until the workload's inputs are built.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

SETUP_START = time.perf_counter()

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(name: str, inputs, traced: bool, pins: dict) -> dict:
    """Run one pass under the latency timer or the full tracer."""
    _, run = workloads.WORKLOADS[name]
    recorder = tracing.Recorder()
    gate = workloads.Gate()
    with tracing.installed(recorder, tracing.TRACED if traced else tracing.LATENCY_ONLY):
        with recorder.region(tracing.ROOT_SPAN):
            referenced = run(inputs, recorder.region, pins, gate)
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"span wrappers left installed: {leftover}")
    spans = recorder.spans
    out = {
        "wall_s": spans[0][2] - spans[0][1],
        "degree_latencies_s": [end - start for name, start, end, _, _ in spans
                               if name == tracing.DEGREE_SPAN],
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures,
    }
    if traced:
        out["layers"] = tracing.layer_metrics(spans, referenced)
        out["spans"] = spans
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--prime", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="file that receives the spans of a traced pass")
    args = ap.parse_args()

    build, _ = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed, args.prime, args.smoke)
    out = {"setup_s": time.perf_counter() - SETUP_START}
    if args.mode != "setup":
        out.update(run_pass(args.workload, inputs, args.mode == "traced",
                            workloads.load_pins()))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans = out.pop("spans", None)
        if spans is not None and args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent", "note"],
                           "spans": spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
