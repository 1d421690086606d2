#!/usr/bin/env python3
"""Build and run the steady-state simulator benchmark.

Run from the root of the source tree:

    python3 perfbench/run.py --workload trace-steady --seed 1 \
        --seconds 35 --trace 0

Configures and builds perfbench/ (which builds the simulator library
from ../src) into .bench_build/perfbench, runs the benchmark binary
with the same arguments and forwards its report. The binary's last
line of standard output is the result, one JSON object; this script
checks its shape and exits non-zero, printing no result, if the build,
the run or the check fails. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ltc_perfbench")
WORKLOADS = ("trace-steady", "timing-steady", "multiprog-1024")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Run cmd with output to log; return its exit code."""
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: run from the "
                 "simulator's source tree")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "ltc_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if run_logged(step, log, 850) != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed: " + " ".join(step))


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are wrong"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int):
        return "failed must be an integer"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        return "metric names differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    spans = os.path.join(BUILD, "spans",
                         f"{args.workload}-seed{args.seed}.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out[-4000:])
        fail(f"benchmark exited with {proc.returncode}")
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(out[-4000:])
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
