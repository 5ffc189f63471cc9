#!/usr/bin/env bash
# The benchmark's one command: builds the harness, runs the workloads,
# prints every metric as `workload name unit value n=<samples>` and writes
# benchmark/out/results.json. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--trace [0|1]] [--smoke]
#                    [--runs N] [--seconds S]
#   benchmark/run.sh --compare A.json B.json
#
# With --workload and without --runs (how BENCHMARK.json's command is
# called) it runs that one workload once, writes only its
# result-<workload>.json, and the last line it prints is the result object.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory; keep it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$HERE/target}"

mode=all
args=()
compare=()
workload=""
runs=""
while [ $# -gt 0 ]; do
  case "$1" in
    --compare) mode=compare; compare=("${2:?--compare A.json B.json}" "${3:?--compare A.json B.json}"); shift 3 ;;
    --trace)
      # `--trace` alone means on; the driver passes `--trace 0|1`.
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then args+=(--trace "$2"); shift 2
      else args+=(--trace 1); shift; fi ;;
    --workload) workload="$2"; args+=("$1" "$2"); shift 2 ;;
    --runs) runs="$2"; args+=("$1" "$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="$CARGO_TARGET_DIR/release/smartml-benchmark"
export SMARTML_BENCH_COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"

if [ "$mode" = compare ]; then
  exec "$BIN" compare --spec "$ROOT/BENCHMARK.json" "${compare[@]}"
fi
if [ -n "$workload" ] && [ -z "$runs" ]; then
  mode=run
fi
exec "$BIN" "$mode" --spec "$ROOT/BENCHMARK.json" --out "$HERE/out" "${args[@]}"
