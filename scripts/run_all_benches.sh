#!/usr/bin/env bash
# Regenerate every paper table/figure plus the ablation and micro benches.
# Each bench prints its own console report. Two write JSON that a script
# gates: bench_obs -> BENCH_obs.json (check_obs_overhead.py) and
# bench_robustness -> BENCH_robustness.json (check_robustness.py). The
# end-to-end and per-layer ledger is perfbench/ (see BENCHMARK.json).
# Usage: scripts/run_all_benches.sh [build-dir] (default: build)
set -u
BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"

for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo
  echo "===================================================================="
  echo "### $(basename "$b")"
  echo "===================================================================="
  case "$b" in
    *bench_obs*)
      # Raw google-benchmark report: scripts/check_obs_overhead.py compares
      # the traced/untraced medians against the 3% budget.
      "$b" --benchmark_out=BENCH_obs.json --benchmark_out_format=json
      ;;
    *bench_robustness*)
      # Smoke attack×defense leaderboard -> BENCH_robustness.json. Serial
      # kernels pin the bit-identical reproducibility contract the committed
      # baseline (scripts/robustness_baseline.json) is checked against below.
      "$b" --quiet --matrix smoke --kernel-arch serial --out BENCH_robustness.json
      ;;
    *bench_micro*|*update_pipeline*|*bench_wire*)
      # google-benchmark binaries: console report only.
      "$b"
      ;;
    *) "$b" --quiet ;;
  esac
done

if command -v python3 >/dev/null 2>&1; then
  [ -f BENCH_obs.json ] \
    && python3 "$SCRIPT_DIR/check_obs_overhead.py" BENCH_obs.json \
    && echo "observability overhead report written to BENCH_obs.json"
  [ -f BENCH_robustness.json ] \
    && python3 "$SCRIPT_DIR/check_robustness.py" BENCH_robustness.json \
         --baseline "$SCRIPT_DIR/robustness_baseline.json" \
    && echo "robustness leaderboard written to BENCH_robustness.json"
else
  echo "python3 not found; skipping the BENCH_obs.json / BENCH_robustness.json gates" >&2
fi
