#!/usr/bin/env bash
# CLI edge-path regression tests for the tools/ runners.
#
# scenario_runner and fuzz_runner share tools/cli_args.hpp; this script
# pins the unified behaviour that used to drift between them:
#   - numeric flags reject sign prefixes (strtoull silently wraps "-1"
#     to 2^64-1, which once made a negative --budget "valid"),
#   - --threads 0 means auto on both runners,
#   - --budget / --engine-threads reject 0,
#   - a --trace path that exists as a regular file fails up front with
#     exit 2 on both tools, before any work runs,
#   - artifacts are byte-identical across --engine-threads counts.
#
# Usage: scripts/test_cli.sh [build-dir]   (default: build)
# Requires scenario_runner and fuzz_runner already built in build-dir.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SR="$BUILD_DIR/scenario_runner"
FZ="$BUILD_DIR/fuzz_runner"
if [ ! -x "$SR" ] || [ ! -x "$FZ" ]; then
  echo "test_cli: build scenario_runner and fuzz_runner in $BUILD_DIR first" >&2
  exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
SPEC="tests/corpus/crash-partition-referee-quorum.json"
FAILS=0

# expect CODE [PATTERN] -- DESC CMD...: run CMD, require exit CODE; with
# a non-empty PATTERN also require it on stderr (unified diagnostics).
expect() {
  local code="$1" pattern="$2" desc="$3"
  shift 3
  local rc=0
  "$@" >"$TMP/stdout" 2>"$TMP/stderr" || rc=$?
  if [ "$rc" -ne "$code" ]; then
    echo "FAIL (want exit $code, got $rc): $desc"
    sed 's/^/      stderr: /' "$TMP/stderr"
    FAILS=$((FAILS + 1))
    return
  fi
  if [ -n "$pattern" ] && ! grep -q "$pattern" "$TMP/stderr"; then
    echo "FAIL (missing diagnostic '$pattern'): $desc"
    sed 's/^/      stderr: /' "$TMP/stderr"
    FAILS=$((FAILS + 1))
    return
  fi
  echo "ok    (exit $rc): $desc"
}

echo "=== rejected edge paths (exit 2, diagnostic on stderr) ==="
expect 2 "non-negative integer" "scenario_runner --threads -1" \
  "$SR" --threads -1
expect 2 "non-negative integer" "fuzz_runner --threads -1" \
  "$FZ" --threads -1
expect 2 "non-negative integer" "scenario_runner --threads junk" \
  "$SR" --threads 4x
expect 2 "non-negative integer" "fuzz_runner --threads junk" \
  "$FZ" --threads 1.5
expect 2 "non-negative integer" "fuzz_runner --budget -5 (strtoull wrap bug)" \
  "$FZ" --budget -5
expect 2 "positive integer" "fuzz_runner --budget 0" \
  "$FZ" --budget 0
expect 2 "non-negative integer" "fuzz_runner --seed -1" \
  "$FZ" --seed -1
expect 2 "positive integer" "scenario_runner --engine-threads 0" \
  "$SR" --engine-threads 0
expect 2 "non-negative integer" "scenario_runner --engine-threads -4" \
  "$SR" --engine-threads -4

touch "$TMP/notadir"
expect 2 "exists and is not a directory" \
  "scenario_runner --trace <existing file>" \
  "$SR" --trace "$TMP/notadir"
expect 2 "exists and is not a directory" \
  "fuzz_runner --trace <existing file>" \
  "$FZ" --trace "$TMP/notadir"

expect 2 "usage" "scenario_runner unknown flag" "$SR" --bogus
expect 2 "usage" "fuzz_runner unknown flag" "$FZ" --bogus
expect 2 "cannot read" "scenario_runner --spec missing file" \
  "$SR" --spec "$TMP/no-such-spec.json"
expect 2 "is a directory" "scenario_runner --spec directory" \
  "$SR" --spec "$TMP"

echo
echo "=== accepted paths (exit 0) ==="
expect 0 "" "scenario_runner corpus spec, --threads 0 (auto)" \
  "$SR" --spec "$SPEC" --threads 0 --out "$TMP/seq.json"
expect 0 "" "scenario_runner corpus spec, --engine-threads 4" \
  "$SR" --spec "$SPEC" --engine-threads 4 --out "$TMP/par.json"
if ! cmp -s "$TMP/seq.json" "$TMP/par.json"; then
  echo "FAIL: artifact differs between --engine-threads 1 and 4"
  FAILS=$((FAILS + 1))
else
  echo "ok    artifact byte-identical across --engine-threads 1 vs 4"
fi
expect 0 "" "scenario_runner --trace creates missing directory" \
  "$SR" --spec "$SPEC" --trace "$TMP/traces" --out "$TMP/traced.json"
if ! ls "$TMP/traces"/*.trace.json > /dev/null 2>&1; then
  echo "FAIL: --trace produced no trace files"
  FAILS=$((FAILS + 1))
else
  echo "ok    --trace wrote per-point trace files"
fi
expect 0 "" "fuzz_runner 1-spec budget, --threads 0 (auto)" \
  "$FZ" --budget 1 --seed 1 --threads 0 \
  --out "$TMP/fuzz.json" --dir "$TMP/repros"

echo
if [ "$FAILS" -ne 0 ]; then
  echo "cli tests: $FAILS FAILURE(S)"
  exit 1
fi
echo "cli tests: ALL GREEN"
