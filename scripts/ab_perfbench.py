#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a git rev against the working tree.

Usage: scripts/ab_perfbench.py REV --workload W [--pairs N] [--seconds S]
                               [--seed N]

Builds `perfbench` twice in Release mode, with
`cmake -S <tree>/perfbench -DCMAKE_BUILD_TYPE=Release`: once from a
`git archive` copy of REV (the parent) and once from the working tree,
uncommitted edits included (the change). Build trees go to $AB_DIR when it
is set (kept, so re-runs build incrementally), else to a temporary
directory removed on exit. It then runs N pairs of `--trace 0` runs of
workload W, alternating which side goes first, and prints every run.

For each end-to-end metric named in BENCHMARK.json it prints the parent
median, the change median, the parent's interquartile range and the number
of pairs in which the change was better (the metric's "better" direction).

Exits 1 if a run fails a gate (non-zero exit or no result line), if any
run reports `failed` above 0, or if committed_per_round, msgs_per_tx,
bytes_per_tx, commit_latency_p50 or commit_latency_p99 differ between the
two sides; 2 on a usage or build error; 0 otherwise. Reads only
BENCHMARK.json and perfbench/ of each side.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DETERMINISTIC = ("committed_per_round", "msgs_per_tx", "bytes_per_tx",
                 "commit_latency_p50", "commit_latency_p99")
BUILD_TIMEOUT_S = 1800


def build(source_root, build_dir):
    """Configure and build perfbench from `source_root`; return the binary."""
    subprocess.run(["cmake", "-S", str(source_root / "perfbench"), "-B",
                    str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def export_rev(rev, dest):
    """Extract the tree of `rev` into `dest` (replacing any old copy)."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run(binary, args):
    """One perfbench run; the parsed result line, or None on a failed gate."""
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=4 * args.seconds + 300)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if result.get("correct") is True else None


def value(result, name):
    return result["metrics"][name]["value"]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload '{args.workload}'")
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                       "--quiet", f"{args.rev}^{{commit}}"],
                      stdout=subprocess.DEVNULL).returncode != 0:
        parser.error(f"unknown revision '{args.rev}'")

    work = os.environ.get("AB_DIR")
    temporary = work is None
    work = pathlib.Path(work or tempfile.mkdtemp(prefix="ab_perfbench."))
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            print(f"building perfbench at {args.rev}", flush=True)
            # git archive stamps every file with the commit time, so make
            # cannot tell an older commit's sources from the objects a kept
            # build made of a newer one: keep it only for the same commit.
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  f"{args.rev}^{{commit}}"], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            stamp = work / "rev.sha"
            if not stamp.exists() or stamp.read_text() != sha:
                shutil.rmtree(work / "rev-build", ignore_errors=True)
                stamp.write_text(sha)
            export_rev(args.rev, work / "rev-src")
            parent_bin = build(work / "rev-src", work / "rev-build")
            print("building perfbench from the working tree", flush=True)
            change_bin = build(ROOT, work / "tree-build")
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as err:
            print(f"ab_perfbench: build failed: {err}", file=sys.stderr)
            return 2
        return compare(args, end_to_end, parent_bin, change_bin)
    finally:
        if temporary:
            shutil.rmtree(work, ignore_errors=True)


def compare(args, end_to_end, parent_bin, change_bin):
    sides = {"parent": parent_bin, "change": change_bin}
    results = {"parent": [], "change": []}
    timing = [m["name"] for m in end_to_end if m["name"] not in DETERMINISTIC]
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], args)
            if result is None:
                print(f"pair {pair + 1} {side}: FAILED a gate", flush=True)
                return 1
            results[side].append(result)
            cells = " ".join(f"{name}={value(result, name):g}"
                             for name in timing)
            print(f"pair {pair + 1} {side:6}: {cells} "
                  f"failed={result['failed']}", flush=True)
            if result["failed"] > 0:
                ok = False

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s")
    print(f"{'metric':22} {'parent':>12} {'change':>12} {'parent IQR':>12}"
          f" {'wins':>6}")
    for metric in end_to_end:
        name = metric["name"]
        parent = [value(r, name) for r in results["parent"]]
        change = [value(r, name) for r in results["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        print(f"{name:22} {statistics.median(parent):12.6g} "
              f"{statistics.median(change):12.6g} {iqr(parent):12.6g} "
              f"{wins:>3}/{args.pairs}")
        if name in DETERMINISTIC and len(set(parent + change)) != 1:
            print(f"ab_perfbench: {name} differs between the two sides",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
