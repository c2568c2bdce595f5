#!/usr/bin/env python3
"""Smoke test for the benchmark: runs every workload briefly in both modes.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload in BENCHMARK.json and
each of --trace 0 and --trace 1, runs perfbench/run.py with a one-second
budget and checks that it exits 0, that its last line is the result
object with exactly the expected keys, that the run is correct, and that
the printed metrics are exactly the BENCHMARK.json metrics of that mode,
with the same units. Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seconds", "1",
                                    "--trace", str(trace)],
                stdout=subprocess.PIPE, cwd=ROOT, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append("%s: not correct" % label)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            unknown = sorted(set(printed) - set(expected[trace]))
            missing = sorted(set(expected[trace]) - set(printed))
            units = sorted(n for n in printed
                           if n in expected[trace]
                           and printed[n] != expected[trace][n])
            for what, names in (("not in BENCHMARK.json", unknown),
                                ("missing", missing), ("unit differs", units)):
                if names:
                    failures.append("%s: %s: %s" % (label, what,
                                                    ", ".join(names)))
            print("%-32s ok=%s attempted=%d metrics=%d"
                  % (label, result["correct"], result["attempted"],
                     len(printed)))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
