#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built from source with dune (build output on standard
error), then run; its last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/chimera_bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "chimera_bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not os.path.isfile("dune-project"):
        fail("run from the repository root (no dune-project here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # --cache=disabled keeps every build write inside the checkout
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "--cache=disabled", TARGET],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
