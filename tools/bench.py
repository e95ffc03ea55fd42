#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, with the claim rule's verdict.

    python3 tools/bench.py pairs PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N --seconds T

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, with that checkout as its working
directory, one process at a time: the parent first in odd pairs and the
change first in even ones.  Each run's last line of standard output is
one JSON object, {"correct", "attempted", "failed", "metrics": {name:
{"value", "unit"}}}, and only that line is read.

For every end-to-end metric of BENCHMARK.json (this checkout's, read
only) it prints the value of each pair, the median and interquartile
range (IQR, inclusive quartiles) of each side, the number of pairs the
change wins (ties count for neither side) and one verdict:

    gain        at least ten pairs were run, the change wins at least nine
                tenths of them, and its median is better than the
                parent's by more than the parent's IQR;
    holds       otherwise, the change's median is worse than the parent's
                by no more than the metric's bound, a fraction of the
                parent's median, and neither side's IQR is wider than the
                bound;
    unresolved  the medians are within the bound but an IQR is wider,
                unless every run of the change is better than every run
                of the parent, which holds;
    worse       the change's median is worse than the parent's by more
                than the bound.

A run that exits non-zero ends the tool with its standard error.  A run
that reports correct false or a failed case is named in the summary, and
its metrics still count: ok_frac carries the failures.  The tool writes
nothing; perfbench/run.py writes its diagnostics under .bench_build/ in
its own checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a gain needs this many pairs, won in at least this share
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9


def read_run(stdout):
    """The JSON object on the last line of a perfbench/run.py stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(parent, change, better, bound):
    """The pairs arithmetic of one metric: parent[i] and change[i] are the
    values of pair i, better "higher" or "lower", bound a fraction of the
    parent's median by which the change's median may be worse."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of values, at least two, "
                         "on each side")
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    scale = abs(pm) or 1    # bounds are fractions of the parent's median
    worse_by = -sign * (cm - pm) / scale
    spread = max(p3 - p1, c3 - c1) / scale
    if (len(parent) >= CLAIM_PAIRS and wins >= CLAIM_SHARE * len(parent)
            and sign * (cm - pm) > p3 - p1):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif spread <= bound or min(sign * c for c in change) > max(
            sign * p for p in parent):
        verdict = "holds"
    else:
        verdict = "unresolved"
    return {"parent_median": pm, "parent_iqr": p3 - p1,
            "change_median": cm, "change_iqr": c3 - c1,
            "wins": wins, "pairs": len(parent), "worse_by": worse_by,
            "verdict": verdict}


def end_to_end_metrics():
    """[(name, unit, better, bound)] of BENCHMARK.json's end-to-end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]]


def report(runs, metrics):
    """The printed summary of runs, a list of (first, parent run, change
    run) per pair, as lines."""
    lines = []
    for index, (_, parent, change) in enumerate(runs, 1):
        for side, run in (("parent", parent), ("change", change)):
            if not run["correct"] or run["failed"]:
                lines.append(f"pair {index}: the {side} run failed "
                             f"{run['failed']} of {run['attempted']} cases")
    for name, unit, better, bound in metrics:
        parent = [p["metrics"][name]["value"] for _, p, _ in runs]
        change = [c["metrics"][name]["value"] for _, _, c in runs]
        s = summarize(parent, change, better, bound)
        lines.append(f"{name} ({unit}, {better} is better, bound "
                     f"{bound:g})")
        for index, ((first, _, _), p, c) in enumerate(
                zip(runs, parent, change), 1):
            lines.append(f"  pair {index:2d} ({first} first): "
                         f"parent {p:.6g}  change {c:.6g}")
        lines.append(
            f"  median parent {s['parent_median']:.6g} (IQR "
            f"{s['parent_iqr']:.4g})  change {s['change_median']:.6g} (IQR "
            f"{s['change_iqr']:.4g}); change worse by "
            f"{100 * s['worse_by']:+.1f}%; change wins {s['wins']} of "
            f"{s['pairs']}: {s['verdict']}")
    return lines


def run_once(checkout, args):
    """The last-line JSON of one untraced perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: perfbench/run.py in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return read_run(proc.stdout)


def pairs(args):
    runs = []
    for index in range(args.pairs):
        first = "parent" if index % 2 == 0 else "change"
        order = ((args.parent, args.change) if first == "parent"
                 else (args.change, args.parent))
        done = {checkout: run_once(checkout, args) for checkout in order}
        runs.append((first, done[args.parent], done[args.change]))
        print(f"pair {index + 1} of {args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds:g} --trace 0")
    print("\n".join(report(runs, end_to_end_metrics())))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pairs", help="alternating parent/change pairs")
    p.add_argument("parent", type=Path, help="the parent checkout")
    p.add_argument("change", type=Path, help="the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.parent.resolve() == args.change.resolve():
        parser.error("the two checkouts must differ")
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
