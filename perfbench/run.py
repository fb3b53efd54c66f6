"""polardeg benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload acceptance|ladder|sections \\
        --seed N --seconds S --trace 0|1 [--smoke] [--prime P]

Every pass runs in a fresh single-threaded interpreter (`passes.py`), one
after another.  After one warm-up interpreter, a run repeats rounds of set-up
samples and one pass while a round of the mean length so far still fits
in `--seconds`; at least one round runs.  With `--trace 0` every pass is
untraced and the end-to-end metrics of BENCHMARK.json are printed; with
`--trace 1` untraced and traced passes alternate and the per-layer metrics
are printed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A full record (provenance, raw per-pass samples, sample counts,
the failed operations) goes to perfbench/results/.  The exit code is 0 only
when every operation matched its pin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("acceptance", "ladder", "sections")

# interpreters that only build the inputs, started before every pass; a
# warm-up interpreter fills the bytecode caches first
SETUP_PER_PASS = 4
# a run must end within 180 s; no pass interpreter outlives this
RUN_LIMIT_S = 170


def _commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    rerun = (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
             f"--seconds {args.seconds:g} --trace {args.trace}"
             + (" --smoke" if args.smoke else "")
             + (f" --prime {args.prime}" if args.prime else ""))
    return {
        "commit": _commit(),
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "prime": args.prime,
        "rerun": f"from the repository root: {rerun}  (see perfbench/README.md)",
    }


class Runner:
    """Starts pass interpreters one at a time and keeps the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def pass_(self, mode: str, spans_file: Path | None = None) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "passes.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--mode", mode]
        if a.prime:
            cmd += ["--prime", str(a.prime)]
        if a.smoke:
            cmd.append("--smoke")
        if spans_file is not None:
            cmd += ["--spans", str(spans_file)]
        # subprocess.run kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"pass interpreter failed ({mode}, exit {proc.returncode})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["mode"] = mode
        return result


def run_name(args) -> str:
    return (f"{args.workload}-seed{args.seed}" + (f"-p{args.prime}" if args.prime else "")
            + ("-smoke" if args.smoke else ""))


def measure(args) -> dict:
    runner = Runner(args)
    runner.pass_("setup")
    setup = []
    modes = cycle(("plain", "traced") if args.trace else ("plain",))
    passes, rounds = [], []
    while True:
        began = perf_counter()
        # set-up samples are spread over the run, so that they see the same
        # machine as the passes
        setup += [runner.pass_("setup")["setup_s"] for _ in range(SETUP_PER_PASS)]
        mode = next(modes)
        spans_file = (RESULTS / f"{run_name(args)}-pass{len(passes)}.spans.json"
                      if mode == "traced" else None)
        passes.append(runner.pass_(mode, spans_file))
        setup.append(passes[-1]["setup_s"])
        rounds.append(perf_counter() - began)
        if args.trace and len(passes) < 2:
            continue
        if runner.elapsed() + sum(rounds) / len(rounds) > args.seconds:
            break
    return {"setup": setup, "passes": passes, "elapsed_s": runner.elapsed()}


def summarize(setup, plain, traced) -> tuple:
    """Every metric of the run, and the sample count behind each."""
    latencies = [t for p in plain for t in p["degree_latencies_s"]]
    values = {
        "wall_s": median(p["wall_s"] for p in plain),
        "setup_s": median(setup),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "degree_p50_s": median(latencies),
        "degree_p90_s": tracing.percentile_90(latencies),
    }
    counts = {"wall_s": len(plain), "setup_s": len(setup), "peak_rss_mb": len(plain),
              "degree_p50_s": len(latencies), "degree_p90_s": len(latencies)}
    if traced:
        # the layer metrics come from the one traced pass with the median wall
        # time, so that its self times add up to its own traced wall time
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        values.update(chosen["layers"])
        values["trace.overhead_ratio"] = (median(p["wall_s"] for p in traced)
                                          / values["wall_s"])
        counts["traced_passes"] = len(traced)
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs for the benchmark's own tests")
    ap.add_argument("--prime", type=int,
                    help="ladder and sections only: the field (default 2^31-1)")
    args = ap.parse_args(argv)
    if args.prime and args.workload == "acceptance":
        ap.error("acceptance always runs at both primes")
    if not (ROOT / "src" / "polardeg" / "__init__.py").is_file():
        print(f"error: no polardeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)

    run = measure(args)
    plain = [p for p in run["passes"] if p["mode"] == "plain"]
    traced = [p for p in run["passes"] if p["mode"] == "traced"]
    values, counts = summarize(run["setup"], plain, traced)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(p["attempted"] for p in run["passes"])
    failed = sum(p["failed"] for p in run["passes"])
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}

    record = {
        "provenance": provenance(args),
        "metrics": metrics,
        "all_values": values,
        "sample_counts": counts,
        "fail_ratio": failed / attempted,
        "elapsed_s": run["elapsed_s"],
        "samples": {"setup_s": run["setup"], "passes": run["passes"]},
    }
    record_file = RESULTS / f"{run_name(args)}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")
    for p in run["passes"]:
        for label in p["failures"]:
            print(f"FAILED {label}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
