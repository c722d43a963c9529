#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>]

Run from the repository root. The build tree is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run configures and compiles the tpv library and perfbench, later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the JSON result of perfbench. Exits non-zero, without a result,
when the build fails (for instance when ../src is missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build perfbench; return its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "perfbench")


def main():
    binary = build(build_dir())
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
