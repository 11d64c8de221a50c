#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs the timed and the traced binary twice at the
self-test scale (`--tiny`, minimum pass count) and checks that

* every metric `BENCHMARK.json` lists is printed, with its unit, and no
  other;
* the run is correct and `ok_share` is 1;
* `attempted`, `failed`, `improvement_mean` and every per-layer count
  repeat exactly across the two runs.

Timings (units `ms`, `ns`, `s`, `1/s`), peak memory, the tracing
overhead and the pool's steals and submission waits are exempt from the
repeat check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measured, not counted: timings, peak memory, the tracing overhead, and
# the pool's steals and submission waits, which depend on thread timing.
MEASURED_UNITS = {"ms", "ns", "s", "1/s", "MiB"}
MEASURED_NAMES = {"trace.overhead_share", "par.steals", "par.submission_waits"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            first, second = run(wl, trace), run(wl, trace)
            tag = f"{wl} --trace {trace}"
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for r in (first, second):
                if not r["correct"] or r["failed"] != 0:
                    problems.append(f"{tag}: run not correct: {r}")
            if trace == 0 and first["metrics"]["ok_share"]["value"] != 1.0:
                problems.append(f"{tag}: ok_share is not 1")
            for key in ("attempted", "failed"):
                if first[key] != second[key]:
                    problems.append(f"{tag}: {key} differs: {first[key]} vs {second[key]}")
            for name, unit in want.items():
                if unit in MEASURED_UNITS or name in MEASURED_NAMES or name not in got:
                    continue
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{tag}: {name} does not repeat: {a} vs {b}")
            print(f"checked {tag}", flush=True)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
