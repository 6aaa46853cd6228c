#!/usr/bin/env python3
"""Builds the full-stack benchmark from source, then runs it.

Run from the repository root:

    python3 stackbench/run.py --workload query --seed 1 --seconds 20 --trace 0
    python3 stackbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; per-run artifacts (soak fault plans, fingerprints, the
result line) go to its results/ directory. Build output is sent to stderr,
so the benchmark's JSON result stays the last line of stdout. Exits non-zero
without a result when the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "stackbench")


def build(build_root):
    build_dir = os.path.join(build_root, "stackbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            # Drop the half-made cache so the next run configures afresh.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    make = ["cmake", "--build", build_dir, "--target", "stackbench",
            "--parallel", "3"]
    if subprocess.call(make, stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "stackbench")


def main():
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("stackbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--out", os.path.join(build_root, "results")]
    sys.stdout.flush()
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main())
