#!/usr/bin/env python3
"""Builds the ledger benchmark and runs one workload.

    python3 ledger/run.py --workload gesture|browse|crowd --seed N \
        --seconds S --trace 0|1

The benchmark (ledger/*.cc) links the program's libraries from src/. It is
built with CMake in Release mode into .bench_build/ at the repository root
and run from the root; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ledger: the program sources (src/) are missing", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "ledger"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "ledger", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("ledger: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    try:
        done = subprocess.run([os.path.join(BUILD, "ledger")] + sys.argv[1:],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
