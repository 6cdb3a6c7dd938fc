#!/usr/bin/env bash
# Sanitizer gate. First a clean Release build whose log must hold no
# compiler warning (a fresh log, so a new warning cannot hide among old
# ones). Then build with AddressSanitizer + UBSan and run the tier-1
# test suite plus the bounded default scenario matrix under
# instrumentation. Catches memory and UB bugs the optimized builds hide.
# The engine's one pooled stage (the PoW search, --engine-threads) gets
# three dedicated jobs:
#   - a --engine-threads 1 vs 4 byte-compare over the full traced
#     default matrix (ASan/UBSan),
#   - the CLI edge-path script (scripts/test_cli.sh) on the same build,
#   - a ThreadSanitizer build (separate dir, -DCYC_SANITIZE=thread)
#     running the parallel-equivalence gate and a matrix sweep at
#     --engine-threads 4.
# Then the Release scenario-fuzz gate (scripts/run_fuzz.sh: fixed seed,
# 200-spec budget, shrink-on-failure, double-run byte-compare). Finishes
# with a 1 s perfbench run of every BENCHMARK.json workload plus one
# traced paper64-closed run: perfbench compiles against src/, so this
# catches a broken benchmark build or a failed benchmark gate.
#
# Usage: scripts/run_checks.sh [build-dir] [tsan-build-dir] [release-dir]
#        (defaults: build-asan, build-tsan, build-bench — the Release
#        directory scripts/run_fuzz.sh reuses)
#
# Exits non-zero on any compiler warning in the Release build, build
# failure, test failure, sanitizer report, invariant violation in the
# scenario matrix, surviving fuzz failure, or perfbench run that fails
# or reports failed operations.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
RELEASE_DIR="${3:-build-bench}"

echo "=== Release build (no compiler warnings) ==="
cmake -B "$RELEASE_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$RELEASE_DIR" -j"$(nproc)" --clean-first 2>&1 |
  tee "$RELEASE_DIR/build.log"
if grep -n "warning:" "$RELEASE_DIR/build.log"; then
  echo "error: the Release build warns (see $RELEASE_DIR/build.log)" >&2
  exit 1
fi
echo "Release build: no warnings"
echo

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCYC_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)"

# halt_on_error makes UBSan findings fatal instead of log-and-continue.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

echo "=== tier-1 ctest (sanitized) ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo
echo "=== scenario matrix (sanitized) ==="
"$BUILD_DIR/scenario_runner" --out "$BUILD_DIR/SCENARIOS.asan.json"

echo
echo "=== traced scenario matrix (determinism byte-compare) ==="
# Traces record simulated time only, so both the per-point trace files
# and the matrix artifact must be byte-identical across runs AND thread
# counts — the sweep pool (--threads) and the engine's pooled PoW
# search (--engine-threads) alike — and tracing must not perturb
# the untraced artifact either. Run A is the fully sequential reference
# path; run B parallelizes both layers.
rm -rf "$BUILD_DIR/traces-a" "$BUILD_DIR/traces-b"
"$BUILD_DIR/scenario_runner" --trace "$BUILD_DIR/traces-a" \
  --threads 1 --engine-threads 1 \
  --out "$BUILD_DIR/SCENARIOS.traced-a.json"
"$BUILD_DIR/scenario_runner" --trace "$BUILD_DIR/traces-b" \
  --threads 4 --engine-threads 4 \
  --out "$BUILD_DIR/SCENARIOS.traced-b.json"
cmp "$BUILD_DIR/SCENARIOS.traced-a.json" "$BUILD_DIR/SCENARIOS.traced-b.json"
diff -r "$BUILD_DIR/traces-a" "$BUILD_DIR/traces-b"
cmp "$BUILD_DIR/SCENARIOS.asan.json" "$BUILD_DIR/SCENARIOS.traced-a.json"
if grep -l wall_us "$BUILD_DIR"/traces-a/*.trace.json; then
  echo "error: wall-clock args leaked into default traces" >&2
  exit 1
fi
echo "traced matrix: byte-identical, --threads 1/--engine-threads 1" \
     "vs --threads 4/--engine-threads 4, inert vs untraced"

echo
echo "=== CLI edge paths (sanitized binaries) ==="
scripts/test_cli.sh "$BUILD_DIR"

echo
echo "=== regression corpus replay (sanitized) ==="
# Checked-in fault-schedule specs (and promoted shrunk fuzzer repros):
# every one must replay green through the full invariant suite.
# set -e makes any violation (exit 1) or parse error (exit 2) fatal.
for spec in tests/corpus/*.json; do
  echo "replay: $spec"
  "$BUILD_DIR/scenario_runner" --spec "$spec" \
    --out "$BUILD_DIR/corpus-$(basename "$spec" .json).asan.json"
done

echo
echo "=== skew + rebalance determinism (--engine-threads 1 vs 4) ==="
# The load-aware re-draw feeds off the open-loop load window and re-homes
# accounts at epoch boundaries; both must be independent of the
# intra-engine thread count or the rebalance path breaks the determinism
# contract. Replay the multi-epoch skew corpus spec at both settings and
# byte-compare the artifacts.
"$BUILD_DIR/scenario_runner" --spec tests/corpus/skew-rebalance.json \
  --engine-threads 1 --out "$BUILD_DIR/skew-rebalance.et1.json"
"$BUILD_DIR/scenario_runner" --spec tests/corpus/skew-rebalance.json \
  --engine-threads 4 --out "$BUILD_DIR/skew-rebalance.et4.json"
cmp "$BUILD_DIR/skew-rebalance.et1.json" "$BUILD_DIR/skew-rebalance.et4.json"
echo "skew-rebalance spec: byte-identical across engine thread counts"

echo
echo "=== ThreadSanitizer job (pooled PoW search) ==="
# The PoW search's compute/emit split is the only code that shares an
# Engine across threads; TSan instruments exactly that. Scope: the
# parallel-equivalence gate (thread counts 1..8 in-process) plus a full
# default-matrix run at --engine-threads 4. ASan/UBSan and TSan cannot
# share a build, hence the second build dir.
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCYC_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc)" --target \
  protocol_test_parallel_equivalence support_test_parallel scenario_runner
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_DIR/protocol_test_parallel_equivalence"
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_DIR/support_test_parallel"
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_DIR/scenario_runner" --engine-threads 4 \
  --out "$TSAN_DIR/SCENARIOS.tsan.json"
echo "tsan job: no data races reported"

echo
echo "=== scenario fuzz (Release, fixed seed) ==="
scripts/run_fuzz.sh "$RELEASE_DIR"

echo
echo "=== perfbench gates (Release, 1 s per workload) ==="
# run.py exits non-zero when the build or a benchmark gate fails; a
# result line with failed > 0 fails here.
perfbench_gate() {  # perfbench_gate <workload> <trace 0|1>
  local result
  result="$(CARGO_TARGET_DIR="$RELEASE_DIR/perfbench-target" \
    python3 perfbench/run.py --workload "$1" --seconds 1 --trace "$2" |
    tail -n 1)"
  if ! python3 -c 'import json, sys
sys.exit(json.loads(sys.argv[1])["failed"] != 0)' "$result"; then
    echo "error: perfbench $1 (--trace $2) reported failed operations" >&2
    exit 1
  fi
  echo "perfbench $1 --trace $2: ok"
}
for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  perfbench_gate "$workload" 0
done
perfbench_gate paper64-closed 1

echo
echo "sanitizer gate: ALL GREEN"
