"""Seeded inputs for the benchmark workloads, built from the standard library.

The generator never calls gradedval, so a library change cannot change the
inputs.  Each workload fixes the combinatorial shape of its cases (block
sizes, diagonal exponents, box bounds, semigroup coefficient caps), so the
work in one pass hardly depends on the seed; the seed picks the entries.

Every case is a dict:
  id      position in the pass
  kind    "pipeline" (scenario JSON through run_pipeline), "cli" (a bundled
          scenario fed to gradedval.cli.main on standard input, with argv)
          or "decomp" (extension JSON through the box-bounded
          decomposition check)
  data    the input bytes the program receives (for "cli": bundled, the
          name of the package's scenario file)
  n, e, f shape, recorded beside the latency for diagnosis
  expect  what the benchmark's oracles compare the output against; the
          program never sees it
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

# ladder rungs: block sizes t (one T-variable per block) and the diagonal
# exponent of each block's T-row; e is the product of the diagonal
LADDER = (
    ((3, 2), (5, 5)),
    ((2, 2, 2), (3, 4, 3)),
    ((3, 3), (8, 6)),
    ((2, 3, 2), (4, 4, 4)),
    ((3, 2, 3), (4, 5, 5)),
    ((3, 3, 2, 2), (5, 4, 2, 5)),
)

# decomp checks: block sizes, diagonal exponents, box bound; each shape is
# drawn twice.  Off-diagonal exponents of at least 1, and checks of similar
# cost, keep the work of a pass within a few percent of its mean across
# seeds; zeros widen the cones and the spread.  With 28 checks a pass has
# a percentile above the median with ten cases beyond it.
DECOMP = (
    ((2, 1), (5, 6), 4),
    ((2, 1), (7, 1), 5),
    ((1, 2), (3, 4), 4),
    ((2, 1), (3, 9), 4),
    ((1, 2), (6, 5), 4),
    ((2, 1), (5, 7), 4),
    ((1, 2), (5, 4), 4),
    ((1, 1, 1, 1), (1, 2, 3, 1), 4),
    ((1, 1, 1, 1), (1, 3, 2, 1), 3),
    ((1, 1, 1, 1), (2, 1, 3, 1), 3),
    ((1, 1, 1, 1), (1, 2, 2, 2), 3),
    ((2, 2), (5, 7), 3),
    ((2, 2), (3, 3), 3),
    ((1, 3), (5, 5), 3),
) * 2

# rank-1 semigroup sections (d, a, b, B), in units of scale/d: small =
# <d, a>, big = <d, b, a>, bound = B * scale; each takes about 0.3 s
RANK1_SECTIONS = ((4, 11, 3, 28),)
# two-block sections (B,): block 0 rational, block 1 with weights
# {1, sqrt(2)}, bound = B * scale
SQRT2_SECTIONS = ((7,),)
BUNDLED = (
    "diag23.json", "identity.json", "random_a.json", "random_b.json",
    "random_c.json", "rank2_h1.json", "rank2_h2.json", "section5.json",
)
LEDGER_SECTIONS = 4
LEDGER_RECORDS = 12


def _rng(workload, seed):
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"perfbench:{workload}:{seed}")


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def extension(rng, t, g, h_min, h_max):
    """Theorem-4.8-shaped extension with rank-1 blocks and |det A| = prod g.

    Block b has t[b] variables, the first being its T-variable with
    diagonal exponent g[b].  Every row carries exponents h_min..h_max on
    the T-columns of later blocks, so A is upper triangular.  T-values are
    unit vectors with small later-block tails; the other values make the
    relation lattice exactly A^t Z^n, so both coset-system hypotheses hold.
    """
    r = len(t)
    n = sum(t)
    offset = [sum(t[:b]) for b in range(r)]
    block = [b for b in range(r) for _ in range(t[b])]
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        b = block[i]
        A[i][i] = g[b] if i == offset[b] else 1
        for c in range(b + 1, r):
            A[i][offset[c]] = rng.randint(h_min, h_max)
    tval = []
    for b in range(r):
        v = [0] * r
        v[b] = 1
        for c in range(b + 1, r):
            v[c] = rng.randint(-1, 2)
        tval.append(v)
    values = []
    for m in range(n):
        b = block[m]
        if m == offset[b]:
            values.append(tval[b])
            continue
        v = [0] * r
        for c in range(r):
            coef = A[offset[b]][offset[c]] - A[m][offset[c]]
            for k in range(r):
                v[k] += coef * tval[c][k]
        values.append(v)
    return {
        "blocks": {"r": str(r), "t": [str(x) for x in t],
                   "s": ["1"] * r},
        "structure": {"blocks": [{"quad": None}] * r},
        "A": [[str(x) for x in row] for row in A],
        "unit_markers": ["1"] * n,
        "y_values": [[[str(c)] for c in v] for v in values],
    }, A


def _extension_case(rng, t, g, f, name, h_min):
    ext, A = extension(rng, t, g, h_min, 3)
    e = prod(g)
    scenario = {"name": name, "extension": ext, "residue_degree": str(f),
                "expect": {"e": str(e)}}
    return {"kind": "pipeline", "data": _dumps(scenario),
            "n": sum(t), "e": e, "f": f,
            "expect": {"type": "extension", "A": A, "e": e, "f": f}}


def ladder(seed, size="full"):
    rng = _rng("ladder", seed)
    rungs = LADDER if size == "full" else LADDER[:2]
    return _number([_extension_case(rng, t, g, 1, f"ladder{k}", 1)
                    for k, (t, g) in enumerate(rungs)])


def decomp(seed, size="full"):
    rng = _rng("decomp", seed)
    checks = DECOMP if size == "full" else DECOMP[:3]
    cases = []
    for t, g, box in checks:
        ext, A = extension(rng, t, g, 1, 2)
        e = prod(g)
        cases.append({"kind": "decomp", "data": _dumps(ext), "box": box,
                      "n": sum(t), "e": e, "f": 1,
                      "expect": {"type": "decomp", "A": A, "e": e,
                                 "box": box}})
    return _number(cases)


def small_shapes():
    """A fixed multiset of small shapes (t, g, f), f in 1..3: every shape
    with n <= 2 and diagonal exponents 1..3 three times, and the n = 3
    shape with three blocks and exponents 1..2 once.  A case with n = 3
    costs about five times one with n = 2 (the coset-system check samples
    5^n vectors), so few are taken.  Fixed shapes keep the work of a pass
    the same across seeds; e <= 24 keeps the pipeline's brute-force
    character check switched on."""
    shapes = []
    for t in ((1,), (2,), (1, 1)):
        for g in product((1, 2, 3), repeat=len(t)):
            shapes += [(t, g, f) for f in (1, 2, 3)] * 3
    for g in product((1, 2), repeat=3):
        shapes += [((1, 1, 1), g, f) for f in (1, 2, 3)]
    return shapes


def _scale(rng):
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def _q(x):
    return [[str(Fraction(x))]]


def rank1_section(rng, d, a, b, bound):
    s = _scale(rng)
    unit = s / d
    small = [_q(d * unit), _q(a * unit)]
    big = [_q(d * unit), _q(b * unit), _q(a * unit)]
    section = {"structure": {"blocks": [{"quad": None}]},
               "small": small, "big": big, "bound": str(bound * s),
               "expect_growth": True}
    return section, {"type": "semigroup",
                     "witnesses": rank1_witnesses(d, a, b, bound * d)}


def rank1_witnesses(d, a, b, top):
    """Count of <d, b, a> \\ <d, a> in 1..top, by dynamic programming."""
    def reach(gens):
        ok = [False] * (top + 1)
        ok[0] = True
        for x in range(1, top + 1):
            ok[x] = any(x >= g and ok[x - g] for g in gens)
        return ok
    small, big = reach((d, a)), reach((d, b, a))
    return sum(1 for x in range(1, top + 1) if big[x] and not small[x])


def sqrt2_section(rng, bound):
    """Two blocks, the second with weights {1, sqrt(2)}.

    small = <u, v, w> with u = (s | 0, 0), v = (0 | s, 0), w = (0 | 0, s);
    big adds h = u - v, which lies in the group but not in the semigroup,
    so the difference is nonempty.
    """
    s = _scale(rng)
    z = str(0)
    u = [[str(s)], [z, z]]
    v = [[z], [str(s), z]]
    w = [[z], [z, str(s)]]
    h = [[str(s)], [str(-s), z]]
    section = {"structure": {"blocks": [{"quad": None}, {"quad": 2}]},
               "small": [u, v, w], "big": [u, v, w, h],
               "bound": str(bound * s), "expect_growth": True}
    return section, {"type": "semigroup", "witnesses": None}


def ledger_records(rng, count):
    """Valid ExtensionRecord data with known delta, r and verdicts, plus
    a few records that must be rejected."""
    records, expect = [], []
    for k in range(count):
        p = rng.choice((0, 2, 3, 5))
        e, f = rng.randint(1, 12), rng.randint(1, 6)
        delta = rng.randint(0, 3) if p else 0
        N = e * f * p ** delta
        g = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r = rng.choice((1, 1, 2, 3, 4))
        rec = {"N": str(N), "e": str(e), "f": str(f), "p": str(p),
               "d": str(g * r), "g": str(g)}
        if k % 2:
            rec["delta"] = str(delta)
        if k % 5 == 4:
            # claims the wrong degree: N is off by one factor of 7
            rec["N"] = str(7 * N)
            rec["expect_error"] = True
            expect.append({"error": True})
        else:
            rec["unramified"] = r == 1
            expect.append({"error": False, "delta": delta, "r": r,
                           "unramified": r == 1})
        records.append(rec)
    return records, expect


def mixed(seed, size="full"):
    rng = _rng("mixed", seed)
    tiny = size != "full"
    cases = []
    shapes = small_shapes()
    rng.shuffle(shapes)
    for k, (t, g, f) in enumerate(shapes[:8] if tiny else shapes):
        cases.append(_extension_case(rng, t, g, f, f"mixed{k}", 0))
    sections = [rank1_section(rng, *spec) for spec in RANK1_SECTIONS]
    if not tiny:
        sections += [sqrt2_section(rng, *spec) for spec in SQRT2_SECTIONS]
    for k, (section, expect) in enumerate(sections):
        scenario = {"name": f"semigroup{k}", "semigroups": section}
        cases.append({"kind": "pipeline", "data": _dumps(scenario),
                      "n": len(section["big"]), "e": 0, "f": 0,
                      "expect": expect})
    for k in range(1 if tiny else LEDGER_SECTIONS):
        records, expect = ledger_records(rng, LEDGER_RECORDS)
        scenario = {"name": f"ledger{k}", "extension_records": records}
        cases.append({"kind": "pipeline", "data": _dumps(scenario),
                      "n": len(records), "e": 0, "f": 0,
                      "expect": {"type": "ledger", "records": expect}})
    for name in BUNDLED[:2] if tiny else BUNDLED:
        cases.append({"kind": "cli", "bundled": name,
                      "argv": ["pipeline", "--scenario", "-", "--json"],
                      "n": 0, "e": 0, "f": 0,
                      "expect": {"type": "cli"}})
    return _number(cases)


def _number(cases):
    for k, case in enumerate(cases):
        case["id"] = k
    return cases


WORKLOADS = {"ladder": ladder, "mixed": mixed, "decomp": decomp}
