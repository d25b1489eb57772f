#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

The first call configures and compiles the library and the benchmark into
.bench_build/servebench (a few minutes); later calls only re-check that
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Any build failure exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "servebench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
