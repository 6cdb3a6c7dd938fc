#!/usr/bin/env python3
"""Pin the fitted Table II classes to the reconciliation table.

    scripts/check_table2.py [artifact] [readme]

Defaults: BENCH_table2_complexity.json and src/analysis/README.md, both
relative to the repository root. Every cell of the artifact whose fitted
class differs from the paper's (cells the paper leaves at "-" excepted)
must have exactly one row in the README's reconciliation table with the
same phase, role, metric, paper class and fitted class, and the table
must have no other rows. Exits 1 and lists each difference otherwise, so
a fitted class can only change together with its table row.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTION = "## Table II reconciliation"


def mismatches(artifact_path):
    with open(artifact_path) as f:
        cells = json.load(f)["cells"]
    out = {}
    for cell in cells:
        if cell["paper"] == "-" or cell["fitted"] == cell["paper"]:
            continue
        key = (cell["phase"], cell["role"], cell["metric"])
        out[key] = (cell["paper"], cell["fitted"])
    return out


def table_rows(readme_path):
    """(phase, role, metric) -> (paper, fitted) for each table row."""
    with open(readme_path) as f:
        lines = f.read().splitlines()
    try:
        start = lines.index(SECTION)
    except ValueError:
        sys.exit(f"check_table2: no '{SECTION}' section in {readme_path}")
    rows = {}
    header_seen = False
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            continue
        cols = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if not header_seen:  # the header row, then its separator
            header_seen = True
            continue
        if set(cols[0]) <= set("-: "):
            continue
        phase, role, metric, paper, fitted = cols[:5]
        key = (phase, role, metric)
        if key in rows:
            sys.exit(f"check_table2: duplicate row for {key}")
        rows[key] = (paper, fitted)
    return rows


def main():
    artifact = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "BENCH_table2_complexity.json")
    readme = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        ROOT, "src", "analysis", "README.md")
    measured = mismatches(artifact)
    table = table_rows(readme)
    problems = []
    for key, (paper, fitted) in sorted(measured.items()):
        if key not in table:
            problems.append(f"{key}: fitted {fitted} vs paper {paper} has no "
                            "reconciliation row")
        elif table[key] != (paper, fitted):
            problems.append(f"{key}: table says paper/fitted {table[key]}, "
                            f"artifact says {(paper, fitted)}")
    for key in sorted(set(table) - set(measured)):
        problems.append(f"{key}: table row for a cell that now matches the "
                        "paper (or does not exist)")
    if problems:
        print("check_table2: fitted Table II classes differ from the "
              f"reconciliation table in {os.path.relpath(readme, ROOT)}:",
              file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        return 1
    print(f"check_table2: {len(measured)} differing cells, each with its "
          "reconciliation row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
