#!/usr/bin/env python3
"""Builds and runs the perf benchmark (see NOTES.md).

    python3 perfbench/run.py --workload <sweep_gated|paper_repro|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
benchmark binary with CMake from the sources in the checkout (into
.bench_build/perfbench); later runs reuse the build.  The binary's
report goes to stdout and its last line is the result JSON; build output
goes to stderr.  The exit code is the binary's: 0 ok, 1 an output check
failed, 2 usage or run error.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep_gated", "paper_repro", "serve_mixed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for need in ("src/CMakeLists.txt", "bench/common.cpp"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from a full checkout",
                  file=sys.stderr)
            return 2

    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", here, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build, "--target", "perfbench", "-j", jobs]]
    if os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    out_dir = os.path.join(build, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
