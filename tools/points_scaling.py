#!/usr/bin/env python3
"""Time and memory per parallelepiped point of one pipeline case, as e grows.

    PYTHONPATH=src python3 tools/points_scaling.py [--repeat 3]

Each case is a two-block extension with t = (3, 3), rank-1 blocks, and
diagonal exponents g = (g1, g2) on the two T-variables, so e = g1 * g2;
the other exponents on the later T-column are drawn from 1..3 with a
fixed seed.  The whole pipeline of one case (validate, monomialize,
coset system, graded checks, report) runs `--repeat` times; the best
wall time is printed with the milliseconds it costs per lattice point.

The last column is resident bytes per lattice point: the growth of this
process's peak resident set (resource.getrusage) over the peak before
the first case, divided by e.  The peak only grows, so the cases run in
ascending e, and each case's figure is its own peak unless a smaller
case peaked higher.
"""

from __future__ import annotations

import argparse
import random
import resource
import sys
import time

from gradedval.exact_lattice import ExactMatrix
from gradedval.monomial_extension import BlockStructure, MonomialExtension
from gradedval.ordered_groups import Block, GroupStructure
from gradedval.scenarios import Scenario, compatible_values, run_pipeline
from gradedval.serialize import canonical_dumps

SHAPES = ((10, 10), (25, 40), (100, 100), (316, 316))


def extension(g, seed=0):
    """t = (3, 3) extension with T-diagonal g and |det A| = g1 * g2."""
    rng = random.Random(seed)
    blocks = BlockStructure(r=2, t=(3, 3), s=(1, 1))
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = g[i // 3] if i % 3 == 0 else 1
        if i < 3:
            rows[i][3] = rng.randint(1, 3)
    A = ExactMatrix.from_rows(rows)
    structure = GroupStructure((Block(), Block()))
    t_values = (structure.element(((1,), (rng.randint(-1, 2),))),
                structure.element(((0,), (1,))))
    return MonomialExtension(blocks=blocks, A=A, unit_markers=("1",) * 6,
                             y_values=compatible_values(blocks, A, t_values))


def peak_rss_bytes():
    """Peak resident set of this process so far, in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kibibytes on Linux, bytes on macOS
    return peak if sys.platform == "darwin" else peak * 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"{'e':>7} {'best s':>9} {'ms/point':>9} {'B/point':>9}")
    start = peak_rss_bytes()
    for g in SHAPES:
        e = g[0] * g[1]
        scenario = Scenario(name=f"points{e}",
                            extensions=((f"points{e}", extension(g)),),
                            residue_degree=1, semigroup=None, records=(),
                            expect={})
        best = None
        for _ in range(args.repeat):
            report = None       # hold one report at a time
            t0 = time.perf_counter()
            report = run_pipeline(scenario)
            canonical_dumps(report)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        if not report["ok"]:
            raise SystemExit(f"e = {e}: pipeline reported a failed check")
        resident = (peak_rss_bytes() - start) / e
        print(f"{e:7d} {best:9.3f} {best / e * 1e3:9.4f} {resident:9.0f}")


if __name__ == "__main__":
    main()
