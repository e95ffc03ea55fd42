#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and one checkout's record.

    python3 tools/bench.py pairs PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N --seconds T
    python3 tools/bench.py record --label L [--checkout DIR] \\
        [--seconds T] [--size full|tiny]

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
its metrics still count: ok_frac carries the failures.

record runs the checkout's (default: this one's) perfbench/run.py on every
workload of BENCHMARK.json, untraced at seeds 7, 23 and 59 and traced once
at seed 7, then its tools/points_scaling.py --repeat 3 where that tool
exists.  It writes BENCH_<label>.json at the root of this checkout with:

    the git sha of the checkout's HEAD and of the last commit that
    changed its perfbench/ (the harness), and the tracked paths modified
    since HEAD; the Python version and the core count;
    per untraced run, the median pass slowdown its stdout prints,
    correct, attempted, failed and its metrics;
    per traced run, the same with only the metrics whose unit is count,
    which are deterministic;
    the scaling rows.

It reads only what those tools print, and refuses (exit 1, no file) a
record that lacks an end-to-end metric for a workload and seed.

The tool itself writes only that file; perfbench/run.py writes its
diagnostics under .bench_build/ in its own checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a gain needs this many pairs, won in at least this share
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9
RECORD_SEEDS = (7, 23, 59)
TRACED_SEED = 7
SLOWDOWN = re.compile(r"median slowdown of the passes: ([0-9.]+)")


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


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics():
    """[(name, unit, better, bound)] of BENCHMARK.json's end-to-end list."""
    return [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark_spec()["end_to_end"]]


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


def run_tool(checkout, argv, env=None):
    """The stdout of python3 argv run in checkout; a non-zero exit ends
    this tool with its standard error."""
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: {argv[0]} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def perfbench(checkout, workload, seed, seconds, trace=0, size="full"):
    """The stdout of one perfbench/run.py run in checkout."""
    return run_tool(checkout, [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size])


def run_once(checkout, args):
    """The last-line JSON of one untraced perfbench run in checkout."""
    return read_run(perfbench(checkout, args.workload, args.seed,
                              args.seconds))


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


def read_record_run(stdout, counts_only=False):
    """One run of a record from its stdout: the median pass slowdown it
    prints, correct, attempted, failed and {metric: value}, or only the
    metrics whose unit is count."""
    run = read_run(stdout)
    metrics = {name: m["value"] for name, m in run["metrics"].items()
               if not counts_only or m["unit"] == "count"}
    return {"slowdown": float(SLOWDOWN.search(stdout).group(1)),
            "correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def read_scaling(stdout):
    """The rows of tools/points_scaling.py's table, below its header."""
    keys = ("e", "best_s", "ms_per_point", "bytes_per_point")
    return [dict(zip(keys, (int(e), *map(float, rest))))
            for e, *rest in (line.split()
                             for line in stdout.strip().splitlines()[1:])]


def assemble(meta, untraced, traced, scaling):
    """The record: meta, then per workload the untraced runs
    {seed: stdout} and the traced run's stdout, then the scaling rows
    (None where the checkout has no tools/points_scaling.py)."""
    return {**meta, "workloads": {
        workload: {"untraced": {str(seed): read_record_run(out)
                                for seed, out in runs.items()},
                   "traced": {str(TRACED_SEED): read_record_run(
                       traced[workload], counts_only=True)}}
        for workload, runs in untraced.items()}, "scaling": scaling}


def missing_metrics(record, workloads, seeds, metrics):
    """The (workload, seed, metric) of every end-to-end metric that the
    record lacks for a workload and seed."""
    runs = record["workloads"]
    return [(w, seed, m) for w in workloads for seed in seeds for m in metrics
            if m not in runs.get(w, {}).get("untraced", {}).get(
                str(seed), {}).get("metrics", {})]


def git(checkout, *argv):
    """The stripped stdout of git in checkout, or None where git fails."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *argv],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args):
    checkout = args.checkout.resolve()
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    untraced, traced = {}, {}
    for workload in workloads:
        untraced[workload] = {}
        for seed in RECORD_SEEDS:
            untraced[workload][seed] = perfbench(
                checkout, workload, seed, args.seconds, size=args.size)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        traced[workload] = perfbench(checkout, workload, TRACED_SEED,
                                     args.seconds, trace=1, size=args.size)
        print(f"{workload} traced done", file=sys.stderr)
    scaling = None
    if (checkout / "tools" / "points_scaling.py").exists():
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        scaling = read_scaling(run_tool(
            checkout, ["tools/points_scaling.py", "--repeat", "3"], env))
    modified = git(checkout, "diff", "--name-only", "HEAD")
    meta = {"label": args.label,
            "code_sha": git(checkout, "log", "-1", "--format=%H"),
            "harness_sha": git(checkout, "log", "-1", "--format=%H", "--",
                               "perfbench"),
            "modified": None if modified is None else modified.splitlines(),
            "python": platform.python_version(), "cores": os.cpu_count(),
            "seconds": args.seconds, "size": args.size}
    doc = assemble(meta, untraced, traced, scaling)
    missing = missing_metrics(doc, workloads, RECORD_SEEDS,
                              [m[0] for m in end_to_end_metrics()])
    if missing:
        sys.exit("bench: the record lacks " + ", ".join(
            f"{m} of {w} seed {seed}" for w, seed, m in missing))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
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
    r = commands.add_parser("record", help="one checkout's BENCH_<label>"
                                           ".json")
    r.add_argument("--label", required=True,
                   help="letters, digits, '.', '_' or '-'")
    r.add_argument("--checkout", type=Path, default=ROOT)
    r.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    r.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.command == "record":
        if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
            parser.error("--label must be letters, digits, '.', '_' or '-'")
        return record(args)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.parent.resolve() == args.change.resolve():
        parser.error("the two checkouts must differ")
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
