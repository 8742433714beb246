#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench binary into .bench_build (CMake, Release); later
runs only check that the build is current. Build output goes to standard
error; the binary's report and, as the last line, its JSON result go to
standard output. Exits non-zero, without a result, when the build or the
run fails.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
WORKLOADS = ("newton_refactor", "multi_rhs_solve", "pattern_drift", "restart_load")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            not run_logged(["cmake", "-S", here, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return False
    return run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                       "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        # Set-ups, context fills and, traced, the replays and the layer
        # sweep come on top of the measured seconds.
        done = subprocess.run(cmd, timeout=2 * args.seconds + 120)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
