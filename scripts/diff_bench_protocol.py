#!/usr/bin/env python3
"""Compare the protocol fields of the root BENCH_*.json artifacts to a git rev.

Usage: scripts/diff_bench_protocol.py [rev]     (rev defaults to HEAD)

Every BENCH_*.json at the repository root is compared with the same file
at `rev`. Host-timing and payload-allocation fields are ignored
(wall_ms, transition_ms, sweep_wall_ms, payload_allocs, payload_bytes);
everything else is a deterministic protocol number and must be equal.
Prints each difference by JSON path and exits 1 if there is any, 0
otherwise. A file missing on either side counts as a difference.
"""

import json
import pathlib
import subprocess
import sys

IGNORED = {"wall_ms", "transition_ms", "sweep_wall_ms", "payload_allocs",
           "payload_bytes"}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in IGNORED}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}"
            if key not in a or key not in b:
                out.append(f"{sub}: only in {'rev' if key in a else 'tree'}")
            else:
                diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} at rev, {len(b)} in tree")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} at rev, {b!r} in tree")


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    root = pathlib.Path(__file__).resolve().parent.parent
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-tree", "--name-only", rev],
        check=True, capture_output=True, text=True).stdout.split()
    names = sorted({n for n in listed if n.startswith("BENCH_") and
                    n.endswith(".json")} |
                   {p.name for p in root.glob("BENCH_*.json")})
    problems = []
    for name in names:
        path = root / name
        if name not in listed or not path.exists():
            problems.append(f"{name}: missing {'at ' + rev if path.exists() else 'in tree'}")
            continue
        old = json.loads(subprocess.run(
            ["git", "-C", str(root), "show", f"{rev}:{name}"],
            check=True, capture_output=True, text=True).stdout)
        new = json.loads(path.read_text())
        found = []
        diff(strip(old), strip(new), name, found)
        problems.extend(found)
        print(f"{'DIFF' if found else 'same'}  {name}")
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} protocol-field difference(s) vs {rev}")
        return 1
    print(f"protocol fields equal to {rev} in {len(names)} artifact(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
