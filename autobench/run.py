#!/usr/bin/env python3
"""Build the system and the benchmark from source, then run one workload.

    python3 autobench/run.py --workload synth|serve_small|serve_columns \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The report goes to standard output and
its last line is one JSON object with the workload's metrics; build
output goes to standard error.  Exits non-zero, without a result line,
when the build fails, and non-zero when a correctness gate fails.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = "_build"
TARGETS = ["autobench/main.exe", "bin/autotype_cli.exe"]
BENCH_EXE, DAEMON_EXE = (os.path.join(BUILD_DIR, "default", t) for t in TARGETS)
# Per-run wall-clock limit: a hung daemon or generator fails the run
# instead of stalling it.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: run from the root of an autotype checkout\n")
        return 2
    # The shared dune cache lives outside the checkout; keep every
    # write inside it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled"] + ["./" + t for t in TARGETS],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1
    cmd = [BENCH_EXE] + sys.argv[1:] + ["--autotype", DAEMON_EXE]
    # A session of its own, so a timeout can stop the daemon as well.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 3
    # Nothing the run started may outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
