"""The benchmark's own checks of program output, independent of gradedval.

Each check takes the decoded JSON report of one case and the expectation
the generator recorded for it, and returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

from itertools import product


def det(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def cone_count(generators, box):
    """Points w of [0, box)^n with W^-1 w >= 0, W's columns the generators.

    W^-1 = adj(W) / det(W), so the test is sign(det W) * adj(W) w >= 0,
    all in integers.
    """
    n = len(generators)
    W = [[generators[j][i] for j in range(n)] for i in range(n)]
    d = det(W)
    sign = 1 if d > 0 else -1
    adj = [[sign * (-1) ** (i + j) * det(
        [[W[a][b] for b in range(n) if b != i] for a in range(n) if a != j])
        for j in range(n)] for i in range(n)]
    return sum(
        1 for w in product(range(box), repeat=n)
        if all(sum(a * x for a, x in zip(row, w)) >= 0 for row in adj))


def _ints(rows):
    return [[int(x) for x in row] for row in rows]


def _extension_case(case, e, f, where):
    """Checks shared by every extension case of a pipeline report."""
    problems = []
    if case.get("ok") is not True:
        problems.append(f"{where}: case ok is not true")
    if int(case["e"]) != e:
        problems.append(f"{where}: e = {case['e']}, expected {e}")
    if abs(det(_ints(case["final_A"]))) != e:
        problems.append(f"{where}: |det final_A| != e")
    if int(case["rank"]) != e * f or int(case["f"]) != f:
        problems.append(f"{where}: rank {case['rank']} != e*f = {e * f}")
    labels = {repr(lbl) for lbl in case["coset_labels"]}
    if len(case["coset_labels"]) != e or len(labels) != e:
        problems.append(f"{where}: {len(labels)} distinct labels, e = {e}")
    points = {tuple(p) for p in case["lattice_points"]}
    if len(points) != e:
        problems.append(f"{where}: {len(points)} lattice points, e = {e}")
    prod = 1
    for d in case["invariant_factors"]:
        prod *= int(d)
    if prod != e:
        problems.append(f"{where}: invariant factors multiply to {prod}")
    return problems


def check_extension(report, expect):
    A, e, f = expect["A"], expect["e"], expect["f"]
    problems = []
    if abs(det(A)) != e:
        problems.append(f"|det A| = {abs(det(A))} but generator built e={e}")
    if report.get("ok") is not True:
        problems.append("report ok is not true")
    if report.get("expected_e_matches") is not True:
        problems.append("expected_e_matches is not true")
    cases = report.get("cases", [])
    if len(cases) != 1:
        return problems + [f"{len(cases)} cases, expected 1"]
    return problems + _extension_case(cases[0], e, f, cases[0]["case"])


def check_semigroup(report, expect):
    problems = []
    section = report.get("semigroup", {})
    if report.get("ok") is not True or section.get("ok") is not True:
        problems.append("semigroup section ok is not true")
    if section.get("groups_equal") is not True:
        problems.append("groups_equal is not true")
    witnesses = section.get("witnesses", [])
    if not witnesses:
        problems.append("no witnesses, growth expected")
    if expect["witnesses"] is not None and len(witnesses) != \
            expect["witnesses"]:
        problems.append(f"{len(witnesses)} witnesses, expected "
                        f"{expect['witnesses']}")
    return problems


def check_ledger(report, expect):
    problems = []
    records = report.get("ledger", {}).get("records", [])
    if report.get("ok") is not True:
        problems.append("ledger report ok is not true")
    if len(records) != len(expect["records"]):
        return problems + ["record count differs"]
    for k, (got, want) in enumerate(zip(records, expect["records"])):
        if got.get("ok") is not True:
            problems.append(f"record {k}: ok is not true")
        if want["error"]:
            if "error" not in got:
                problems.append(f"record {k}: inconsistent record accepted")
            continue
        if (got.get("delta") != str(want["delta"])
                or got.get("r") != str(want["r"])
                or got.get("unramified") is not want["unramified"]):
            problems.append(f"record {k}: delta/r/unramified differ")
    return problems


def check_cli(report, expect, exit_code):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("ok") is not True:
        problems.append("report ok is not true")
    for case in report.get("cases", []):
        e, f = int(case["e"]), int(case["f"])
        problems += _extension_case(case, e, f, case["case"])
    for key in ("semigroup", "ledger"):
        if key in report and report[key].get("ok") is not True:
            problems.append(f"{key} section ok is not true")
    return problems


def check_decomp(report, expect):
    e, box = expect["e"], expect["box"]
    problems = []
    if abs(det(expect["A"])) != e:
        problems.append(f"|det A| = {abs(det(expect['A']))}, expected {e}")
    if report.get("ok") is not True:
        problems.append("decomposition ok is not true")
    if int(report["e"]) != e or len(
            {tuple(p) for p in report["points"]}) != e:
        problems.append(f"{len(report['points'])} parallelepiped points, "
                        f"e = {e}")
    final = _ints(report["final_A"])
    if abs(det(final)) != e:
        problems.append("|det final_A| != e")
    own = cone_count(final, box)
    if int(report["checked_points"]) != own:
        problems.append(f"checked_points {report['checked_points']}, "
                        f"own count {own}")
    return problems


def check(case, report, exit_code=0):
    """Problems with one case's decoded report."""
    expect = case["expect"]
    kind = expect["type"]
    try:
        if kind == "cli":
            return check_cli(report, expect, exit_code)
        return {
            "extension": check_extension,
            "semigroup": check_semigroup,
            "ledger": check_ledger,
            "decomp": check_decomp,
        }[kind](report, expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
