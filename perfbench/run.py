#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Configures and builds perfbench/ (which
compiles the dcolor library from ../src) into .bench_build/perfbench as
an optimized build, then runs the perfbench binary. Build output goes to
stderr; stdout carries the binary's context line and, as its last line,
the result object. The binary reports each figure as name -> value; the
metric names and units are kept only in BENCHMARK.json, and this script
attaches the units.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def result_object(line, trace):
    """The binary's result line, with its figures turned into metrics.

    A per-layer metric whose layer the workload does not have (mpc.* on a
    Theorem 1.1 workload, say) reads 0: the result lists every metric, so
    that 0 is a placeholder and is never compared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    values = result.pop("values")
    unknown = sorted(set(values) - {m["name"] for m in spec})
    if unknown:
        fail(f"figures not listed in BENCHMARK.json: {unknown}")
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and not trace:
        fail(f"perfbench did not report {missing}")
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in spec}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"])
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = result_object(lines[-1], args.trace == "1")
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)


if __name__ == "__main__":
    main()
