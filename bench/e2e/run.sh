#!/usr/bin/env bash
# Builds lplow_bench (Release, into .bench_build) and runs the end-to-end
# benchmark. Run from anywhere inside a checkout; see README.md here.
#
# One workload (the form BENCHMARK.json's command uses):
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   Every option is passed to lplow_bench; the last stdout line is the JSON
#   result.
#
# Every workload, each in its own process:
#   bash bench/e2e/run.sh [--seed=N] [--seconds=S] [--trace] [--repeat=N]
#                         [--out=DIR]
#   --trace adds one traced run per workload (trace-<workload>.json);
#   --repeat=N runs the set N times with the same seed into DIR/run<i>/ —
#   the input bench/e2e/compare.py reads.
set -euo pipefail

cd "$(dirname "$0")/../.."
build=.bench_build

# Build output goes to stderr: the last stdout line is the result.
cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target lplow_bench -j "$(nproc)" >&2

git_describe=unknown
if [[ -d .git ]]; then
  git_describe=$(git describe --always --dirty 2>/dev/null || echo unknown)
fi

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$build/lplow_bench" --git "$git_describe" "$@"
  fi
done

seed=1 seconds=15 trace=0 repeat=1 out=.bench_results
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed=${arg#*=} ;;
    --seconds=*) seconds=${arg#*=} ;;
    --trace) trace=1 ;;
    --repeat=*) repeat=${arg#*=} ;;
    --out=*) out=${arg#*=} ;;
    *) echo "run.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

status=0
for ((i = 1; i <= repeat; i++)); do
  dir=$out
  if ((repeat > 1)); then dir=$out/run$i; fi
  for workload in coord-lp mpc-lp serve-inproc serve-socket; do
    modes=(0)
    if ((trace)); then modes=(0 1); fi
    for mode in "${modes[@]}"; do
      echo "== $workload seed=$seed trace=$mode ($dir)"
      "$build/lplow_bench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$mode" --out "$dir" \
        --git "$git_describe" || status=1
    done
  done
done
exit $status
