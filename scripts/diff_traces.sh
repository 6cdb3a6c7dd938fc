#!/usr/bin/env bash
# Behaviour-neutrality gate for refactors: byte-compare the traced
# scenario runs of the working tree against those of a git revision.
#
# Builds scenario_runner (Release) twice — once from a `git archive` copy
# of REV, once from the working tree, uncommitted edits included — then
# runs both with --trace over the built-in default matrix and over every
# tests/corpus/*.json spec. Every matrix / spec artifact is compared with
# `cmp` and every trace directory with `diff -r`.
#
# Usage: scripts/diff_traces.sh [rev]        (default: HEAD)
#
# Work files go to $DIFF_TRACES_DIR when set (kept, so re-runs build
# incrementally), else to a temporary directory removed on exit.
#
# Exits 0 when every artifact and trace is byte-identical, 1 on any
# difference, and non-zero on a build or run failure.
set -euo pipefail

cd "$(dirname "$0")/.."
REV="${1:-HEAD}"
git rev-parse --verify --quiet "$REV^{commit}" >/dev/null || {
  echo "diff_traces: unknown revision '$REV'" >&2
  exit 2
}

if [[ -n "${DIFF_TRACES_DIR:-}" ]]; then
  WORK="$DIFF_TRACES_DIR"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi
JOBS="$(nproc)"

build() {  # build <source-dir> <build-dir>
  cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j"$JOBS" --target scenario_runner >/dev/null
}

echo "=== building scenario_runner at $REV ==="
rm -rf "$WORK/rev-src"
mkdir -p "$WORK/rev-src"
git archive "$REV" | tar -x -C "$WORK/rev-src"
build "$WORK/rev-src" "$WORK/rev-build"

echo "=== building scenario_runner from the working tree ==="
build . "$WORK/tree-build"

run_all() {  # run_all <build-dir> <out-dir>
  local runner="$1/scenario_runner" out="$2"
  rm -rf "$out"
  mkdir -p "$out"
  "$runner" --trace "$out/matrix.traces" --out "$out/matrix.json" >/dev/null
  for spec in tests/corpus/*.json; do
    local name
    name="$(basename "$spec" .json)"
    "$runner" --spec "$spec" --trace "$out/$name.traces" \
      --out "$out/$name.json" >/dev/null
  done
}

echo "=== traced runs: default matrix + every tests/corpus spec ==="
run_all "$WORK/rev-build" "$WORK/rev-out"
run_all "$WORK/tree-build" "$WORK/tree-out"

status=0
for artifact in "$WORK"/rev-out/*.json; do
  name="$(basename "$artifact")"
  cmp "$artifact" "$WORK/tree-out/$name" || status=1
done
diff -r "$WORK/rev-out" "$WORK/tree-out" >/dev/null || {
  diff -rq "$WORK/rev-out" "$WORK/tree-out" || true
  status=1
}
traces="$(find "$WORK/rev-out" -name '*.trace.json' | wc -l)"
if [[ "$status" -eq 0 ]]; then
  echo "diff_traces: byte-identical to $REV ($traces trace files)"
else
  echo "diff_traces: working tree differs from $REV" >&2
fi
exit "$status"
