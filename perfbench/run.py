#!/usr/bin/env python3
"""Build and run one workload of the spmap service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <map_cold|map_hot|remap_churn> \\
        --seed <n> --seconds <s> --trace <0|1>

`--trace 0` builds and runs the timed binary (`perfbench`), `--trace 1`
the traced tool (`trace`).  Each is built on its own, so the timed path
builds even when the traced tool does not.  Cargo's output goes to
stderr; the last line on stdout is the result object.  The exit code is
not 0 when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = "0"
    if "--trace" in argv[:-1]:
        trace = argv[argv.index("--trace") + 1]
    binary = "trace" if trace == "1" else "perfbench"
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--bin", binary, "--",
    ] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
