#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload tpch_inmem --seed 1 --seconds 10 --trace 0

Builds the engine and the perfbench program from source with CMake (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload with its
databases under .bench_run/, and passes the program's report through. The
last line of stdout is the result JSON. Exits non-zero without a result
when the engine sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_inmem", "tpch_outofcore", "tpcc_durable", "sql_wire")


def run_timeout_s(seconds):
    """The program sizes its work to --seconds; allow for slow hosts plus
    set-up and checks, within the 180 s a run may take at --seconds 20."""
    return 3 * seconds + 110


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("engine sources (src/) not found beside perfbench/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_run"),
           "--golden-dir", os.path.join(HERE, "goldens")]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {timeout} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        return fail("the last line of the report is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("the result JSON has the wrong keys")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
