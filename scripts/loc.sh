#!/usr/bin/env bash
# Lines of *.cpp + *.hpp per src/ directory at a git revision and in the
# working tree (uncommitted edits included), plus the src/ total and the
# src/protocol + src/obs sum that ROADMAP item 4 budgets.
# Usage: scripts/loc.sh [rev]        (default: HEAD)
set -euo pipefail
cd "$(dirname "$0")/.."
REV="${1:-HEAD}"
git rev-parse --verify --quiet "$REV^{commit}" >/dev/null ||
  { echo "loc: unknown revision '$REV'" >&2; exit 2; }

at_rev() {  # at_rev <dir>: lines under <dir> at REV
  git ls-tree -r --name-only "$REV" -- "$1" | grep -E '\.(cpp|hpp)$' |
    while read -r f; do git show "$REV:$f"; done | wc -l
}
in_tree() {  # in_tree <dir>: lines under <dir> in the working tree
  find "$1" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 2>/dev/null |
    xargs -0 -r cat | wc -l
}

printf '%-18s %8s %8s %7s\n' dir "$REV" tree change
dirs="$({ git ls-tree -d --name-only "$REV" src/; ls -d src/*/; } |
  sed 's:/$::' | sort -u) src src/protocol+obs"
for d in $dirs; do
  if [[ "$d" == src/protocol+obs ]]; then
    a=$(($(at_rev src/protocol) + $(at_rev src/obs)))
    b=$(($(in_tree src/protocol) + $(in_tree src/obs)))
  else a=$(at_rev "$d"); b=$(in_tree "$d"); fi
  printf '%-18s %8d %8d %+7d\n' "$d" "$a" "$b" $((b - a))
done
