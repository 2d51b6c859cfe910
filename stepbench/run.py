#!/usr/bin/env python3
"""Build and run the measured step benchmark.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stepbench/run.py --self-test

Run from the root of the repository. The first call configures the
benchmark package (stepbench/CMakeLists.txt, which pulls in the
repository's own CMake project) under $CARGO_TARGET_DIR/stepbench
(default .bench_build/stepbench) and builds it; later calls only let
the build tool check it is up to date. Build output goes to stderr, so
the benchmark's own last stdout line -- its JSON result -- stays last.
Every argument is passed through to the benchmark binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("stepbench: the repository's CMake project is not next to "
              f"{HERE}; run from a full checkout", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "stepbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "stepbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print(f"stepbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "stepbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
