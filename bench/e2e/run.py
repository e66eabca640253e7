#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run it.

Usage, from the repository root:
    python3 bench/e2e/run.py --workload map-disk --seed 1 --seconds 10 --trace 0

Configures and builds bench/e2e (liboms, oms_serve and bench_e2e, Release)
in $CARGO_TARGET_DIR, default .bench_build, then runs bench_e2e from the
repository root with the given arguments (see `bench_e2e --help` or
bench/e2e/README.md). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the build fails, e.g. in a tree that holds the benchmark but not the library.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: building bench_e2e failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(build, "bench_e2e")
    os.chdir(root)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
