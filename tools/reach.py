#!/usr/bin/env python3
"""Print the statements of src/gradedval that no run reaches.

    python3 tools/reach.py [SEED]
    python3 tools/reach.py --tests
    python3 tools/reach.py --defs

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

With --defs it line-traces the run of SEED 7 and then the release gate,
tests/test_acceptance.py, and prints each package def none of whose body
statements ran, as path:line: name, with the reason ALLOWED_DEFS gives for
keeping it.  It exits 1 when a def it prints is not in ALLOWED_DEFS, or
when ALLOWED_DEFS names a def that ran or no longer exists, so the list
stays the exact set of defs that no workload, command or gate reaches.
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
}
# module.qualname of each def that no workload, CLI command or release-gate
# test reaches, with the reason it stays
_ITEM2 = "no pipeline stage or command calls it; ROADMAP item 2 deletes it"
_ARITHMETIC = "the group's own arithmetic and order, which the tests use"
ALLOWED_DEFS = {
    "affine_monoids._member": "the search of AffineMonoid.contains",
    "affine_monoids.in_rational_cone": _ITEM2 + " or moves it to the tests",
    "affine_monoids._hits":
        "counts hits only for a point list that is not one point per "
        "residue class: a tampered or hand-built basis",
    "affine_monoids.AffineMonoid.contains":
        _ITEM2 + " or moves it to the tests as the membership oracle",
    "affine_monoids.ParallelepipedBasis.cone":
        "the walk hands its basis the cone; only a hand-built basis "
        "computes it",
    "exact_lattice.ExactMatrix.diagonal":
        "a constructor for library callers and the tests; adjugate checks "
        "adj * A = det * I on plain integer rows, so no stage builds a "
        "diagonal matrix",
    "exact_lattice.unimodular_inverse": _ITEM2,
    "exact_lattice.solve_integer": _ITEM2,
    "monomial_extension.induced_x_values":
        _ITEM2 + "; the pipeline reads _x_value_rows",
    "ordered_groups.lex_compare": _ARITHMETIC,
    "ordered_groups.quotient_invariant_factors": _ITEM2,
    "ordered_groups.coset_label": _ITEM2,
    "ordered_groups.Quotient.label":
        "reached only through coset_label; the pipeline labels whole "
        "columns by label_columns",
    "ordered_groups.Quotient.invariant_factors":
        "reached only through quotient_invariant_factors; coset_system "
        "reads the invariant factors off the Smith diagonal of the "
        "T-block, with no transforms",
    "ordered_groups.GroupElement.coords":
        "the per-block Fractions of an element, built only for a caller "
        "that asks; the tests read them, no stage does",
    "ordered_groups.GroupElement.__sub__": _ARITHMETIC,
    "ordered_groups.GroupElement.__neg__": _ARITHMETIC,
    "ordered_groups.GroupElement.__lt__": _ARITHMETIC,
    "ordered_groups.GroupElement.__le__": _ARITHMETIC,
    "scenarios._failure": "reached only by a failing case, which no "
                          "workload has",
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


def defs(source, lines):
    """(line, qualified name, body statement lines of lines) of each def
    in source, a method named Class.method and a nested def outer.inner."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = {n.lineno for stmt in child.body
                        for n in ast.walk(stmt) if isinstance(n, ast.stmt)}
                out.append((child.lineno, prefix + child.name, body & lines))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


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


def suite_runs(*paths):
    """The tier-1 suite, as ROADMAP.md runs it, or only the test files
    paths; its summary goes to stdout before the unrun statements."""
    import pytest
    sys.settrace(trace)
    pytest.main(["-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors",
                 *map(str, paths or [ROOT / "tests"])])
    sys.settrace(None)


def unreached_defs():
    """Print each unreached def with its reason; 1 unless ALLOWED_DEFS
    names exactly those."""
    workload_runs(7)
    suite_runs(ROOT / "tests" / "test_acceptance.py")
    unreached = set()
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        lines = set(statements(source, str(path)))
        for line, name, body in defs(source, lines):
            if not any((str(path), n) in hit for n in body):
                name = f"{path.stem}.{name}"
                unreached.add(name)
                why = ALLOWED_DEFS.get(name, "NOT ALLOWED")
                print(f"{path.relative_to(ROOT)}:{line}: {name} ({why})")
    print(f"{len(unreached)} defs unreached", file=sys.stderr)
    stale = sorted(set(ALLOWED_DEFS) - unreached)
    for name in stale:
        print(f"ALLOWED_DEFS names {name}, which ran or is gone",
              file=sys.stderr)
    return 1 if stale or unreached - set(ALLOWED_DEFS) else 0


def main():
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--defs"]:
        return unreached_defs()
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
