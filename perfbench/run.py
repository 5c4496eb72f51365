#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build lives in .bench_build/perfbench and is incremental, so only the
first run in a checkout compiles.  Build output goes to stderr; the benchmark's
standard output is passed through unchanged, so its last line is the JSON
result.  A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "4"


def build():
    # Configuring every time is cheap once cached, and keeps a build tree
    # left by an older version of this file usable.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", BUILD_JOBS]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD, "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
