#!/usr/bin/env python3
"""Builds and runs the abdiag end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the benchmark binary with the same arguments. Build output
goes to stderr; the binary's last stdout line is the JSON result. Exits
non-zero without a result when the sources or the toolchain are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("abdiag sources (src/CMakeLists.txt) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    # The binary takes its scratch directory as a path relative to the
    # repository root (short unix-socket paths), so run it from there.
    rel_work = os.path.relpath(work, ROOT)
    proc = subprocess.run([binary, "--workdir", rel_work] + sys.argv[1:],
                          cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
