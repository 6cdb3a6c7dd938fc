#!/usr/bin/env bash
# Behaviour-neutrality gate for refactors: byte-compare the traced
# scenario runs and the fuzz campaign of the working tree against those
# of a git revision.
#
# Builds scenario_runner and fuzz_runner (Release) twice — once from a
# `git archive` copy of REV, once from the working tree, uncommitted
# edits included — then runs both scenario_runners with --trace over the
# built-in default matrix and over every tests/corpus/*.json spec of
# their own source tree (so a corpus edit is compared too), and both
# fuzz_runners over the fixed campaign of scripts/run_fuzz.sh (seed 1,
# budget 200). Every matrix / spec / campaign artifact is compared with
# `cmp` and every trace directory with `diff -r`; a corpus spec present
# on one side only is reported as a difference. For each trace file that
# differs, it then prints the names of the metrics and event args whose
# values differ.
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
  cmake --build "$2" -j"$JOBS" --target scenario_runner fuzz_runner \
    >/dev/null
}

echo "=== building scenario_runner and fuzz_runner at $REV ==="
# git archive stamps every file with the commit time, so make cannot tell
# an older commit's sources from the objects a kept build made of a newer
# one: keep the rev build only while the commit stays the same.
REV_SHA="$(git rev-parse "$REV^{commit}")"
if [[ "$(cat "$WORK/rev.sha" 2>/dev/null || true)" != "$REV_SHA" ]]; then
  rm -rf "$WORK/rev-build"
  echo "$REV_SHA" > "$WORK/rev.sha"
fi
rm -rf "$WORK/rev-src"
mkdir -p "$WORK/rev-src"
git archive "$REV_SHA" | tar -x -C "$WORK/rev-src"
build "$WORK/rev-src" "$WORK/rev-build"

echo "=== building scenario_runner and fuzz_runner from the working tree ==="
build . "$WORK/tree-build"

run_all() {  # run_all <build-dir> <source-dir> <out-dir>
  local runner="$1/scenario_runner" out="$3"
  rm -rf "$out"
  mkdir -p "$out"
  "$runner" --trace "$out/matrix.traces" --out "$out/matrix.json" >/dev/null
  for spec in "$2"/tests/corpus/*.json; do
    local name
    name="$(basename "$spec" .json)"
    "$runner" --spec "$spec" --trace "$out/$name.traces" \
      --out "$out/$name.json" >/dev/null
  done
  # The campaign artifact is a pure function of (seed, budget). A red
  # campaign exits 1 but still writes it (the cmp below decides); any
  # other non-zero status is a run failure.
  local fuzz_status=0
  "$1/fuzz_runner" --seed 1 --budget 200 --out "$out/FUZZ.json" \
    --dir "$out/fuzz-failures" >/dev/null || fuzz_status=$?
  if [[ "$fuzz_status" -gt 1 ]]; then
    echo "diff_traces: fuzz_runner in $1 exited $fuzz_status" >&2
    exit "$fuzz_status"
  fi
}

echo "=== traced runs (default matrix + each side's corpus) + fuzz campaign ==="
run_all "$WORK/rev-build" "$WORK/rev-src" "$WORK/rev-out"
run_all "$WORK/tree-build" . "$WORK/tree-out"

# explain_traces <rev-out> <tree-out>: for each trace file present on both
# sides whose bytes differ, print the names of the metrics (counters,
# gauges, histograms) and event args whose values differ; an event list
# that differs in anything but args is reported as "events".
explain_traces() {
  python3 - "$1" "$2" <<'PY'
import json, pathlib, sys

rev, tree = map(pathlib.Path, sys.argv[1:3])

def differing(a, b):
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))

for path in sorted(rev.rglob("*.trace.json")):
    other = tree / path.relative_to(rev)
    if not other.exists() or path.read_bytes() == other.read_bytes():
        continue
    a, b = json.loads(path.read_text()), json.loads(other.read_text())
    names = set()
    for kind in ("counters", "gauges", "histograms"):
        names.update(differing(a["metrics"].get(kind, {}),
                               b["metrics"].get(kind, {})))
    ea, eb = a["traceEvents"], b["traceEvents"]
    strip = lambda e: {k: v for k, v in e.items() if k != "args"}
    if len(ea) != len(eb) or any(strip(x) != strip(y) for x, y in zip(ea, eb)):
        names.add("events")
    else:
        for x, y in zip(ea, eb):
            label = x.get("name", "span end")
            names.update(f"{label}:{k}"
                         for k in differing(x.get("args", {}), y.get("args", {})))
    if a.get("droppedEvents") != b.get("droppedEvents"):
        names.add("droppedEvents")
    print(f"diff_traces: {path.relative_to(rev)}: {' '.join(sorted(names))}")
PY
}

status=0
for name in $({ (cd "$WORK/rev-out" && ls -- *.json)
                (cd "$WORK/tree-out" && ls -- *.json); } | sort -u); do
  if [[ ! -e "$WORK/tree-out/$name" ]]; then
    echo "diff_traces: $name: only at $REV" >&2
    status=1
  elif [[ ! -e "$WORK/rev-out/$name" ]]; then
    echo "diff_traces: $name: only in the working tree" >&2
    status=1
  else
    cmp "$WORK/rev-out/$name" "$WORK/tree-out/$name" || status=1
  fi
done
diff -r "$WORK/rev-out" "$WORK/tree-out" >/dev/null || {
  diff -rq "$WORK/rev-out" "$WORK/tree-out" || true
  explain_traces "$WORK/rev-out" "$WORK/tree-out"
  status=1
}
traces="$(find "$WORK/rev-out" -name '*.trace.json' | wc -l)"
if [[ "$status" -eq 0 ]]; then
  echo "diff_traces: byte-identical to $REV ($traces trace files)"
else
  echo "diff_traces: working tree differs from $REV" >&2
fi
exit "$status"
