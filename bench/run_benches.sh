#!/usr/bin/env bash
# Runs the trajectory benches and writes BENCH_*.json at the repo root so
# the perf story is tracked PR over PR (ROADMAP: BENCH trajectory).
#
#   bench/run_benches.sh [build-dir]
#
# Expects a Release build (cmake -B build -S . && cmake --build build -j).
# Knobs via env: MICRO_ARGS / S1_ARGS / NET_ARGS are appended to the
# bench commands.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -x "$build_dir/bench_micro_decision" ]]; then
  echo "error: $build_dir/bench_micro_decision not built" >&2
  echo "hint: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# micro: per-decision cost, reference TZRouter structures vs the flat
# layout, n=10k k=3 (the acceptance configuration —
# flat_speedup_eytzinger is the headline scalar), plus the batched route
# rows and the G x ISA sweep.
"$build_dir/bench_micro_decision" \
    --json "$repo_root/BENCH_micro.json" ${MICRO_ARGS:-}

# S1: serving throughput at several thread counts, plus the churn mode —
# 3 background rebuild+swap cycles per thread count with qps-under-swap
# and swap-blackout telemetry (the hot-swap trajectory) — and one artifact
# publish + recover cycle (the persist_* keys).
"$build_dir/bench_s1_throughput" \
    --n 10000 --queries 50000 --threads 1,2,4 --churn 3 \
    --json "$repo_root/BENCH_s1.json" ${S1_ARGS:-}

# NET: wire front-end under open-loop offered load — socket byte-identity,
# closed-loop saturation qps (the gated scalar), and the open-loop sweep
# where p99 sojourn at >=80% load exposes the queueing a closed loop hides.
"$build_dir/bench_net_openloop" \
    --n 10000 --queries 20000 --threads 2 --connections 4 \
    --loads 0.5,0.8,0.95 --duration 1.5 \
    --json "$repo_root/BENCH_net.json" ${NET_ARGS:-}

echo "wrote $repo_root/BENCH_micro.json, $repo_root/BENCH_s1.json and" \
     "$repo_root/BENCH_net.json"
