#!/usr/bin/env python3
"""FedGuard benchmark: one command, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the benchmark (perfbench/CMakeLists.txt: the repository's libraries in
Release plus perfbench_e2e) under $CARGO_TARGET_DIR (default .bench_build)
at the repository root, runs one workload, prints a readable report (host
fingerprint, correctness gates, every metric with unit, direction and
sample count), and ends with one JSON line holding the metrics
BENCHMARK.json declares: its end_to_end set with --trace 0, its per_layer
set with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no FedGuard source tree next to {HERE.name}/ (expected {ROOT}/src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release",
         f"-DPERFBENCH_JOBS={jobs}"],
        ["cmake", "--build", str(out_dir), "-j", jobs],
    ]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            fail(f"build step failed: {' '.join(step)}")
    binary = out_dir / "perfbench_e2e"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"smoke={str(report['smoke']).lower()} federations={len(report['federation_run_s'])}")
    print("fingerprint: " + " | ".join(f"{k}={v}" for k, v in report["fingerprint"].items()))
    for gate in report["gates"]:
        print(f"gate {'PASS' if gate['pass'] else 'FAIL'} {gate['name']}: {gate['detail']}")
    print(f"attempted={report['attempted']} failed={report['failed']} "
          f"correct={str(report['correct']).lower()}")
    for name, metric in sorted(report["metrics"].items()):
        better = f", {metric['better']} is better" if metric["better"] else ""
        note = f"  [{metric['note']}]" if metric["note"] else ""
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']:6s}"
              f" (n={metric['samples']}{better}){note}")
    if report["trace_file"]:
        print(f"trace: {report['trace_file']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few rounds per workload (self-test), not a measurement")
    args = parser.parse_args()

    out_dir = build_dir() / "perfbench"
    binary = build(out_dir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"perfbench_e2e exited with {result.returncode}")
    lines = [line for line in result.stdout.splitlines() if line.startswith("{")]
    if not lines:
        fail("perfbench_e2e printed no report")
    report = json.loads(lines[-1])
    print_report(report)

    metrics = {}
    for declared in declared_metrics(args.trace):
        name = declared["name"]
        measured = report["metrics"].get(name)
        if measured is None or measured["value"] is None or not math.isfinite(measured["value"]):
            fail(f"metric {name} was not measured on {args.workload}")
        if measured["unit"] != declared["unit"]:
            fail(f"metric {name}: unit {measured['unit']} != declared {declared['unit']}")
        metrics[name] = {"value": measured["value"], "unit": declared["unit"]}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
