#!/usr/bin/env bash
# Build Release and run the JSON macro-benchmarks.
#
# Writes two copies of each artifact:
#   bench/out/BENCH_<name>.json   (working copy, gitignored territory)
#   ./BENCH_<name>.json           (repo root, the tracked trajectory)
#
# Every artifact holds protocol numbers only (see bench/bench_util.hpp),
# so each bench runs twice and the two artifacts must be byte-identical:
# any diff is a determinism regression or a host-dependent field. To
# compare the refreshed root artifacts with a git rev:
#   git diff --exit-code REV -- 'BENCH_*.json'
#
# Usage: scripts/run_benches.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
BENCHES="throughput_scalability crossshard table2_complexity epoch_transition sustained_load"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
# shellcheck disable=SC2046
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $(printf 'bench_%s ' $BENCHES)

mkdir -p bench/out
for name in $BENCHES; do
  echo "=== bench_${name} (double-run byte-compare) ==="
  artifact="bench/out/BENCH_${name}.json"
  "$BUILD_DIR/bench_${name}" "$artifact"
  "$BUILD_DIR/bench_${name}" "bench/out/BENCH_${name}.rerun.json" > /dev/null
  if ! cmp "$artifact" "bench/out/BENCH_${name}.rerun.json"; then
    echo "error: BENCH_${name}.json differs between runs" >&2
    exit 1
  fi
  rm -f "bench/out/BENCH_${name}.rerun.json"
  if ! grep -q '"phases":\[' "$artifact"; then
    echo "error: ${artifact} carries no per-phase breakdown" >&2
    exit 1
  fi
  cp "$artifact" "BENCH_${name}.json"
done
echo "all artifacts byte-identical across runs, phase breakdowns present"

echo "=== paper-scale population points (m=32, m=64) ==="
# Both artifacts must carry the paper-scale m=32 and m=64 points or the
# slope fits silently regress to the small-m regime.
for name in throughput_scalability table2_complexity; do
  artifact="bench/out/BENCH_${name}.json"
  for m in 32 64; do
    if ! grep -q "\"m\":${m}[,}]" "$artifact"; then
      echo "error: ${artifact} is missing the m=${m} point" >&2
      exit 1
    fi
  done
done
echo "m=32 and m=64 present in both sweep artifacts"

echo "=== Table II fitted classes vs the reconciliation table ==="
# A fitted class may only change together with its row in
# src/analysis/README.md.
python3 scripts/check_table2.py bench/out/BENCH_table2_complexity.json

echo "=== hot-shard skew / rebalance section ==="
# The sustained-load artifact must carry the skewed static-vs-rebalance
# pair (src/epoch/rebalance.*) — both modes, so the hottest-shard
# before/after comparison stays in the tracked trajectory.
artifact="bench/out/BENCH_sustained_load.json"
if ! grep -q '"skew_rebalance":' "$artifact"; then
  echo "error: ${artifact} is missing the skew_rebalance section" >&2
  exit 1
fi
for mode in static rebalance; do
  if ! grep -q "\"mode\":\"${mode}\"" "$artifact"; then
    echo "error: ${artifact} skew section is missing the ${mode} point" >&2
    exit 1
  fi
done
echo "skew_rebalance section present with both modes"

echo
echo "Artifacts:"
ls -l BENCH_*.json
