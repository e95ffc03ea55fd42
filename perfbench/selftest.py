#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

Checks that a tiny run of every workload emits every metric named in
BENCHMARK.json and is correct, that call counts repeat between two traced
runs, that the oracles count a corrupted report and a wrong e as failures,
and that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace, cwd=bench.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metrics_emitted():
    want = {0: [m["name"] for m in SPEC["end_to_end"]],
            1: [m["name"] for m in SPEC["per_layer"]]}
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    calls = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1, 1):
            res = result(tiny(w["name"], trace))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, res
            assert sorted(res["metrics"]) == sorted(want[trace]), w
            for name, m in res["metrics"].items():
                assert m["unit"] == units[name], name
            if trace:
                counts = {k: m["value"] for k, m in res["metrics"].items()
                          if m["unit"] == "count"}
                previous = calls.setdefault(w["name"], counts)
                assert counts == previous, f"{w['name']}: calls differ"


class Corrupting:
    """Wraps the program: corrupts one report and reports a wrong e."""

    def __init__(self, program):
        self.program = program
        self.decode = program.decode

    def run(self, case, decoded):
        out, code = self.program.run(case, decoded)
        report = json.loads(out)
        if case["id"] == 0:
            labels = report["cases"][0]["coset_labels"]
            labels[-1] = labels[0]
        elif case["id"] == 1:
            report["cases"][0]["e"] = str(case["e"] + 1)
        return json.dumps(report).encode(), code


def test_oracles_count_failures():
    program = bench.import_program()
    cases = gen.ladder(7, "tiny")
    clean = bench.Run(program, cases)
    clean.warm_up()
    clean.timed_pass()
    assert not clean.problems and clean.failed == 0
    bad = bench.Run(Corrupting(program), cases)
    bad.warm_up()
    bad.timed_pass()
    bad.timed_pass()
    assert sorted(bad.problems) == [0, 1], bad.problems
    assert bad.failed == 4 and bad.attempted == 2 * len(cases)
    # the decomposition oracle recounts the cone by itself
    case = gen.decomp(7, "tiny")[0]
    report = json.loads(program.run(case, program.decode(case))[0])
    assert not bench.oracles.check(case, report)
    report["checked_points"] = str(int(report["checked_points"]) + 1)
    assert bench.oracles.check(case, report)


def test_refuses_without_source():
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(bench.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = tiny("ladder", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def main():
    for test in (test_oracles_count_failures, test_refuses_without_source,
                 test_metrics_emitted):
        test()
        print(f"ok  {test.__name__}")


if __name__ == "__main__":
    main()
