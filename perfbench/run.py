#!/usr/bin/env python3
"""gradedval benchmark: seeded workloads, end-to-end metrics, outside-in trace.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from a checkout that holds src/gradedval.  Load model: a closed loop in
one process and thread; the next case starts when the previous one returns.
A pass runs every case of the workload once.  After one warm-up pass, whose
outputs the oracles check, passes repeat until --seconds have gone by.

Times are in reference seconds.  A VM that shares its host (measured on a
2-vCPU VM) can run pure Python up to 1.8x slower for seconds to minutes at
a time, through no fault of the program.  So every pass also times a fixed
piece of pure-Python work (calibrate) between its cases, and a latency is
divided by its pass's slowdown, the median calibration time over
REFERENCE_S.  Each case then counts at its median over the passes.  Raw
wall-clock latencies and every pass's slowdown are kept in the diagnostics
file.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a run whose passes alternate between untraced and traced.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-case latencies with each case's (n, e, f), and the spans of one traced
pass, go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
import oracles
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
MIN_PASSES = 5
# stop starting passes after this long, so a run ends within 180 s
PASS_DEADLINE_S = 110
CHILD_TIMEOUT_S = 60
# calibrate() on a 2-vCPU VM with Python 3.11.7, at its usual speed when
# other tenants leave it alone
REFERENCE_S = 220e-6
CALIBRATIONS = 3        # per case boundary


def calibrate():
    """Seconds for a fixed piece of pure-Python work of the kind gradedval
    does, Fraction sums and small integer row operations: about 0.2 ms."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 3)
    rows = [[(i * j) % 7 for j in range(6)] for i in range(6)]
    for _ in range(20):
        rows = [[a - b for a, b in zip(r, rows[0])] for r in rows]
    return time.perf_counter() - t0


def slowdown(samples):
    """Slowdown against the reference machine, from calibrate() times."""
    return statistics.median(samples) / REFERENCE_S


def import_program():
    """Import gradedval from this checkout's src/, or exit with an error."""
    if not (SRC / "gradedval" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC}/gradedval not found; run from a "
                 f"gradedval checkout")
    sys.path.insert(0, str(SRC))
    import gradedval
    if Path(gradedval.__file__).resolve().parent != SRC / "gradedval":
        sys.exit(f"perfbench: imported gradedval from {gradedval.__file__}, "
                 f"not from {SRC}")
    from cases import Program
    return Program()


def child_setup(cases):
    """Seconds to import gradedval and decode every input in this fresh
    process, and the slowdown measured just before."""
    factor = slowdown([calibrate() for _ in range(21)])
    t0 = time.perf_counter()
    program = import_program()
    for case in cases:
        program.decode(case)
    print(json.dumps([time.perf_counter() - t0, factor]))


def child_hashes(cases):
    """One pass; prints the sha256 of every case's report bytes."""
    program = import_program()
    digests = []
    for case in cases:
        out, _ = program.run(case, program.decode(case))
        digests.append(hashlib.sha256(out).hexdigest())
    print(json.dumps(digests))


def spawn(args, role, env=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.splitlines()[-1]


class Run:
    """Passes over one workload, with per-case results."""

    def __init__(self, program, cases):
        self.program = program
        self.cases = cases
        self.decoded = [program.decode(c) for c in cases]
        self.digests = [None] * len(cases)     # from the warm-up pass
        self.problems = {}                     # case id -> list of problems
        self.attempted = 0
        self.failed = 0

    def _one(self, case, decoded):
        try:
            return self.program.run(case, decoded)
        except Exception:  # a raising case counts as failed; keep going
            return traceback.format_exc().encode(), None

    def warm_up(self):
        for case, decoded in zip(self.cases, self.decoded):
            out, code = self._one(case, decoded)
            self.digests[case["id"]] = hashlib.sha256(out).hexdigest()
            if code is None:
                problems = ["raised: " + out.decode().splitlines()[-1]]
            else:
                try:
                    problems = oracles.check(case, json.loads(out), code)
                except json.JSONDecodeError:
                    problems = ["output is not JSON"]
            if problems:
                self.problems[case["id"]] = problems

    def timed_pass(self, tracer=None):
        """Raw latency of every case in seconds, and the pass's slowdown."""
        latencies = []
        units = [calibrate() for _ in range(CALIBRATIONS)]
        for case, decoded in zip(self.cases, self.decoded):
            if tracer is not None:
                tracer.case_id = case["id"]
                # decode again under the tracer, untimed, so load_scenario
                # and dec_extension are traced too
                decoded = self.program.decode(case)
            t0 = time.perf_counter()
            out, code = self._one(case, decoded)
            latencies.append(time.perf_counter() - t0)
            digest = hashlib.sha256(out).hexdigest()
            if digest != self.digests[case["id"]]:
                self.problems.setdefault(case["id"], []).append(
                    "report bytes differ from the warm-up pass")
            self.attempted += 1
            if case["id"] in self.problems:
                self.failed += 1
            units += [calibrate() for _ in range(CALIBRATIONS)]
        return latencies, slowdown(units)

    def compare_hashes(self, digests):
        """Fail every attempt of a case whose bytes depend on the hash seed."""
        for case, theirs in zip(self.cases, digests):
            if theirs != self.digests[case["id"]]:
                if case["id"] not in self.problems:
                    self.failed += self.attempted // len(self.cases)
                self.problems.setdefault(case["id"], []).append(
                    "report bytes differ under another PYTHONHASHSEED")


def typical(passes):
    """Each case's median latency over the passes."""
    return [statistics.median(latencies) for latencies in zip(*passes)]


def tail(best):
    """(value, percentile) over the cases' latencies: the highest
    percentile with ten cases beyond it, or the slowest case when a pass
    has fewer than 21 cases and no such percentile lies above the median."""
    ordered = sorted(best)
    k = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(run, passes, setup):
    best = typical(passes)
    tail_s, pct = tail(best)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (len(best) / sum(best), "1/s"),
        "case_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "case_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (1 - run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"case_tail_ms": f"p{pct:.1f} of {len(best)} cases",
             "cases_per_s": f"{len(best)} cases per pass, median of "
                            f"{len(passes)} passes each"}
    return metrics, notes


def per_layer(summaries, factors, counters, traced, untraced):
    """Per-layer metrics from the traced passes' span summaries; a time is
    divided by its pass's slowdown and taken as the median over the traced
    passes, like the end-to-end latencies."""
    metrics = {}
    for name, value in summaries[0].items():
        if isinstance(value, int):
            metrics[name] = (value, "count")
        else:
            metrics[name] = (statistics.median(
                s[name] / f for s, f in zip(summaries, factors)), "s")
    c = counters
    metrics["monomialization.strong_monomialize.steps"] = (
        c["monomialization.strong_monomialize.steps"], "count")
    metrics["affine_monoids.box_hit_ratio"] = (
        c["affine_monoids.checked_points"] / c["affine_monoids.box_points"]
        if c["affine_monoids.box_points"] else 0.0, "ratio")
    metrics["value_semigroups.witness_ratio"] = (
        c["value_semigroups.witnesses"] / c["value_semigroups.enumerated"]
        if c["value_semigroups.enumerated"] else 0.0, "ratio")
    metrics["serialize.report_bytes"] = (c["serialize.report_bytes"],
                                         "bytes")
    for code in (0, 1, 2):
        metrics[f"cli.main.exit_{code}"] = (c[f"cli.main.exit_{code}"],
                                            "count")
    metrics["trace.overhead_frac"] = (
        sum(typical(traced)) / sum(typical(untraced)) - 1, "ratio")
    return metrics


def measure(args, cases, program):
    # set-up probes are spread over the run, one before the warm-up and
    # one after each pass, to sample more than one machine state
    setup = [json.loads(spawn(args, "setup"))]   # (raw seconds, slowdown)
    run = Run(program, cases)
    run.warm_up()
    start = time.perf_counter()
    raw, factors = [], []           # raw latencies and slowdown per pass
    passes, traced_passes, untraced_passes = [], [], []   # in reference s
    summaries, traced_factors, counters, spans = [], [], [], None
    tracer = tracing.Tracer() if args.trace else None
    while True:
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (4 if args.trace else MIN_PASSES)
        if enough and (elapsed >= args.seconds
                       or elapsed >= PASS_DEADLINE_S):
            break
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                latencies, factor = run.timed_pass(tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
            traced_factors.append(factor)
            counters.append(dict(tracer.counters))
            if spans is None:
                spans = tracer.spans()
        else:
            latencies, factor = run.timed_pass()
        raw.append(latencies)
        factors.append(factor)
        passes.append([x / factor for x in latencies])
        (traced_passes if traced else untraced_passes).append(passes[-1])
        if len(setup) < SETUP_PROBES:
            setup.append(json.loads(spawn(args, "setup")))
    while len(setup) < SETUP_PROBES:
        setup.append(json.loads(spawn(args, "setup")))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    run.compare_hashes(json.loads(spawn(args, "hashes", env)))
    if tracer is not None:
        calls = [{k: v for k, v in s.items() if isinstance(v, int)}
                 for s in summaries]
        if any(c != calls[0] for c in calls) or any(
                c != counters[0] for c in counters):
            run.problems.setdefault(-1, []).append(
                "call counts differ between traced passes")
        metrics = per_layer(summaries, traced_factors, Counter(counters[0]),
                            traced_passes, untraced_passes)
        notes = {}
    else:
        metrics, notes = end_to_end(run, passes,
                                    [t / f for t, f in setup])
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_raw_s_and_slowdown": setup,
        "pass_slowdown": factors,
        "cases": [{"id": c["id"], "kind": c["kind"], "n": c["n"],
                   "e": c["e"], "f": c["f"],
                   "raw_latency_ms": [p[c["id"]] * 1e3 for p in raw]}
                  for c in cases],
        "problems": {str(k): v for k, v in run.problems.items()},
        "spans": spans,
    }
    return run, metrics, notes, diagnostics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cases per workload, for the "
                             "self-test")
    parser.add_argument("--role", choices=("main", "setup", "hashes"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cases = gen.WORKLOADS[args.workload](args.seed, args.size)
    if args.role == "setup":
        return child_setup(cases)
    if args.role == "hashes":
        return child_hashes(cases)
    program = import_program()  # exits before any work without src/
    run, metrics, notes, diagnostics = measure(args, cases, program)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(diagnostics))
    for case_id, problems in sorted(run.problems.items()):
        for problem in problems:
            print(f"FAILED case {case_id}: {problem}", file=sys.stderr)
    print(f"{args.workload:7s} median slowdown of the passes: "
          f"{statistics.median(diagnostics['pass_slowdown']):.3f} "
          f"(times below are divided by it)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:7s} {name:58s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
