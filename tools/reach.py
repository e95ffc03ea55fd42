#!/usr/bin/env python3
"""Print the statements of src/gradedval that no run reaches.

    python3 tools/reach.py [SEED]
    python3 tools/reach.py --tests

Line-traces (sys.settrace) one pass over every case of the three benchmark
workloads at SEED (default 7), made by perfbench/gen.py and run by
perfbench/cases.py, both loaded by path and unchanged, and then every
subcommand on every bundled scenario.  With --tests it line-traces the
tier-1 test suite instead, in this process through pytest.main (about
five times its untraced time, a few minutes).
Prints path:line: source for each statement of the package that compiles
to code and never ran, then their count, "N statements unrun", on stderr.
With --tests it exits 1 when it lists any statement but those of ALLOWED,
which are kept unrun on purpose; CI runs it so on one Python version.
"""

import ast
import json
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "gradedval"
hit = set()
# (path, source text) of the statements tier-1 leaves unrun on purpose
ALLOWED = {
    ("src/gradedval/cli.py", "sys.exit(main())"),
    ("src/gradedval/exact_lattice.py",
     'raise SingularLattice("adjugate identity failed")'),
}


def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(PKG)):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace


def statements(source, path):
    """Start lines of the statements of source that compile to code."""
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and node.lineno in lines})


def cli_runs(program):
    """Every subcommand on every bundled scenario, through cli.main."""
    def run(argv, data):
        raw = data if isinstance(data, bytes) else json.dumps(data).encode()
        return program.run({"kind": "cli", "argv": argv + ["-"]}, raw)[0]

    for name in program.cli.bundled_scenario_names():
        raw = program.cli.bundled_scenario_bytes(name)
        data = json.loads(raw)
        run(["pipeline", "--scenario"], raw)
        run(["graded", "--scenario"], raw)
        if "extension" in data:
            ext = {"extension": data["extension"]}
            run(["snf", "--in"], {"matrix": data["extension"]["A"]})
            run(["cosets", "--box-bound", "2", "--in"], ext)
            run(["pipeline", "--replay"], run(["monomialize", "--in"], ext))
        if "semigroups" in data:
            run(["semigroup", "--in"], data["semigroups"])
        if "extension_records" in data:
            run(["ledger", "--in"], {"records": data["extension_records"]})


def workload_runs(seed):
    """One pass over the three benchmark workloads, then cli_runs."""
    gen, cases = (runpy.run_path(str(ROOT / "perfbench" / name))
                  for name in ("gen.py", "cases.py"))
    sys.settrace(trace)
    program = cases["Program"]()
    for workload in ("ladder", "mixed", "decomp"):
        for case in gen["WORKLOADS"][workload](seed):
            program.run(case, program.decode(case))
    cli_runs(program)
    sys.settrace(None)


def suite_runs():
    """The tier-1 suite, as ROADMAP.md runs it; its summary goes to stdout
    before the unrun statements."""
    import pytest
    sys.settrace(trace)
    pytest.main(["-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", str(ROOT / "tests")])
    sys.settrace(None)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    tests = sys.argv[1:] == ["--tests"]
    if tests:
        suite_runs()
    else:
        workload_runs(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
    unreached, count = set(), 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        for n in statements(source, str(path)):
            if (str(path), n) not in hit:
                name = str(path.relative_to(ROOT))
                line = source.splitlines()[n - 1].strip()
                unreached.add((name, line))
                count += 1
                print(f"{name}:{n}: {line}")
    print(f"{count} statements unrun", file=sys.stderr)
    if tests and unreached - ALLOWED:
        print("tier-1 leaves a statement unrun that ALLOWED does not name",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
