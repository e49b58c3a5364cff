#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json, plus the socket workload that
BENCHMARK.json leaves out (see README.md), for a few rounds (run.py
--smoke), untraced and traced. Checks that each run exits 0, that every
correctness gate passes, and that the final line carries exactly the
declared metrics, each with its declared unit and a finite value. Takes
about a minute once perfbench_e2e is built.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Runnable and gated, but too sensitive to host contention for the steady
# set in BENCHMARK.json (README.md, Steadiness).
EXTRA_WORKLOADS = ["socket_fedavg_s2"]


def check_run(workload, trace, declared):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    problems = []
    if result.returncode != 0:
        return [f"exit code {result.returncode}"]
    lines = result.stdout.splitlines()
    final = json.loads(lines[-1])
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"final line keys {sorted(final)}")
    if final.get("correct") is not True or final.get("failed") != 0:
        problems.append(f"correct={final.get('correct')} failed={final.get('failed')}")
    if not isinstance(final.get("attempted"), int) or final["attempted"] < 1:
        problems.append(f"attempted={final.get('attempted')}")
    failed_gates = [line for line in lines if line.startswith("gate FAIL")]
    problems += failed_gates
    if not any(line.startswith("gate PASS") for line in lines):
        problems.append("no gate reported")
    metrics = final.get("metrics", {})
    names = [metric["name"] for metric in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: missing {sorted(set(names) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(names))}")
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')} != {metric['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_run(workload, trace, spec[key])
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    print("selftest:", "passed" if failures == 0 else f"{failures} run(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
