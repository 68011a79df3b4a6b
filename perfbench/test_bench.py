#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the root of the repository. Checks that:

- BENCHMARK.json has the shape the benchmark contract asks for, and each
  workload's `why` is the one the benchmark prints;
- a short run of every workload, untraced and traced, exits 0 with a
  correct result (run.py itself refuses a result line whose metrics differ
  from the ones BENCHMARK.json names for the mode), and prints a readable
  line for every one of those metrics, by name with its unit; end-to-end
  values are positive;
- the wall-time ledger holds in every simulation: the scheduler lanes'
  cumulative phase times sum to the middleware's scheduler time within
  LEDGER_TOLERANCE seconds per cycle;
- run.py exits non-zero without a result line in a directory that holds
  only BENCHMARK.json and the benchmark's files.

Exits 1 on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER_TOLERANCE = 1e-9  # seconds per cycle; Sim.ledger_tolerance
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIM_LINE = re.compile(
    r"^  (?:sim|probed|traced) \d+: .* cycles=(\d+) .* sched=([\d.]+)s "
    r"lanes=([\d.]+)s ")


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(spec["paths"] == ["perfbench"], "paths")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    # a comparison makes 4 + 22 runs per workload, each with about 3 s of
    # overhead, plus two builds, and must end within 3420 s
    runs = 4 + 22 * len(spec["workloads"])
    check(runs * (spec["run_seconds"] + 3) + 300 <= 3420,
          "run_seconds too long for a comparison's time budget")
    names = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, "workload keys")
        check("\n" not in w["why"] and len(w["why"]) <= 200, "why " + w["name"])
        names.add(w["name"])
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    for key, lo, hi in (("end_to_end", 1, 16), ("per_layer", 1, 128)):
        check(lo <= len(spec[key]) <= hi, key + " count")
        for m in spec[key]:
            want = {"name", "unit", "better"} | ({"bound"} if key == "end_to_end" else set())
            check(set(m) == want, "keys of " + m["name"])
            check(m["better"] in ("higher", "lower"), "better of " + m["name"])
            check(UNIT.match(m["unit"]) is not None, "unit of " + m["name"])
            if key == "end_to_end":
                check(0 < m["bound"] <= 0.25, "bound of " + m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) is not None, "name " + m["name"])
        check(m["name"] not in names, "name used twice: " + m["name"])
        names.add(m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s metric")


def run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def check_run(spec, workload, trace):
    what = "%s --trace %d" % (workload["name"], trace)
    proc = run(ROOT, workload["name"], trace)
    check(proc.returncode == 0, "%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          what + " result " + lines[-1][:200])
    check("why: " + workload["why"] in lines, what + " prints a different why")
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"][m["name"]]["value"]
        check(math.isfinite(value), what + " " + m["name"] + " not finite")
        if not trace:
            check(value > 0, what + " " + m["name"] + " is not positive")
        printed = [l for l in lines[:-1]
                   if not l.startswith(" ") and l.split()[:1] == [m["name"]]]
        check(len(printed) == 1 and printed[0].split()[2] == m["unit"],
              what + " does not print " + m["name"] + " with its unit")
    sims = [SIM_LINE.match(l) for l in lines]
    sims = [s for s in sims if s]
    check(sims, what + " prints no simulation lines")
    for s in sims:
        cycles, sched, lanes = int(s.group(1)), float(s.group(2)), float(s.group(3))
        # both sums are printed to 1e-9 s, hence the extra rounding slack
        check(abs(sched - lanes) <= LEDGER_TOLERANCE * max(1, cycles) + 2e-9,
              "%s ledger: lanes %.9fs vs scheduler %.9fs" % (what, lanes, sched))


def check_bare():
    # "_" keeps dune from reading the copy's dune file as part of this tree
    bare = os.path.join(HERE, "out", "_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "durable-skewed", 0)
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        check(proc.returncode != 0, "a bare directory run exited 0")
        check(not last.startswith("{"), "a bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w, trace)
            print("ok %s --trace %d" % (w["name"], trace), flush=True)
    check_bare()
    print("ok bare directory")


if __name__ == "__main__":
    main()
