#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-greedy --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The
build goes to $CARGO_TARGET_DIR when set, else to .bench_build/ at the
repository root; build output goes to stderr, so the binary's last stdout
line stays its JSON result. A failed build exits non-zero without a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the binary (both no-ops when up to date);
    returns its path, or None when a step fails."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
