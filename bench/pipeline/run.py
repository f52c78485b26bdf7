#!/usr/bin/env python3
"""Build the pipeline benchmark from source, then run it.

From the repository root:

    python3 bench/pipeline/run.py --workload figures-base --seed 1 \\
        --seconds 20 --trace 0

The first call configures bench/pipeline into .bench_build/ at the
repository root; every call rebuilds wsg_bench there (a no-op when
nothing changed) and then replaces itself with the binary, passing every
argument through (see main.cc for the flags). Build output goes to
stderr, so the last line on stdout is the benchmark's result line.
Without the repository's sources beside the benchmark it prints an error
and exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: wsg sources not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "wsg_bench",
                  "-j", jobs])
    # The compiler's scratch files stay inside the build directory too.
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("error: '" + " ".join(step) + "' failed")
    return os.path.join(BUILD, "wsg_bench")


def main():
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
