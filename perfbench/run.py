#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, one by one

Run from the root of the repository. Builds perfbench/bench.exe with dune,
runs each workload in its own process, checks that the result line names
exactly the metrics and units BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1), and prints the program's output.
The last line of standard output is the result JSON object. Exits non-zero,
without a result line, when the build fails or the output is malformed, and
non-zero with a result line when a correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # A disabled dune cache keeps every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run_one(workload, seed, seconds, trace):
    try:
        proc = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line (exit %d)" % (workload, proc.returncode))
    _, expected = expected_metrics(trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("%s: metrics do not match BENCHMARK.json: missing %s, extra or "
             "wrong unit %s" % (
                 workload,
                 sorted(set(expected.items()) - set(got.items())),
                 sorted(set(got.items()) - set(expected.items()))))
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found in " + ROOT)
    spec, _ = expected_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s; one of %s" % (args.workload, ", ".join(names)))
    build()
    if args.workload != "all":
        code, lines, _ = run_one(args.workload, args.seed, seconds, args.trace)
        print("\n".join(lines), flush=True)
        sys.exit(code)
    # Every workload, each in its own process, one at a time.
    worst, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, lines, result = run_one(name, args.seed, seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][name + "." + metric] = value
    print(json.dumps(summary), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
