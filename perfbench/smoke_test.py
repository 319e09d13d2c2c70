#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size through perfbench/run.py, untraced and
traced, and checks that each run passes its correctness checks and emits
every metric BENCHMARK.json names, with its unit. Then runs the oracle's
negative test: the tiny engine_bound switch (n=4, r=8, k=4, Theorem 2's
bound m=16) run at m=4 must report its blocks as failed operations. Exits 0
when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine_large", "engine_bound", "sim_repack", "capacity_exact"]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
               *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2].split(" ", 1)[1])
    return report, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, spec["workloads"]
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{workload} trace={trace}: metrics {emitted} != {expected}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed: "
                                f"{report['failures']}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            print(f"ok {workload} trace={trace}: attempted {result['attempted']}")

    # The Theorem 2 oracle must catch blocks far below the bound.
    report, result = run("engine_bound", 0, "--middles", "4")
    blocked = int(report["notes"]["blocked"])
    if result["correct"] or result["failed"] < blocked or blocked == 0:
        problems.append(f"negative oracle test: correct={result['correct']} "
                        f"failed={result['failed']} blocked={blocked}")
    else:
        print(f"ok engine_bound at m=4 reports {blocked} blocks as failures")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
