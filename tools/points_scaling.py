#!/usr/bin/env python3
"""Time and memory per parallelepiped point of one pipeline case, as e grows.

    PYTHONPATH=src python3 tools/points_scaling.py [--repeat 3]

Each case is a two-block extension with t = (3, 3), rank-1 blocks, and
diagonal exponents g = (g1, g2) on the two T-variables, so e = g1 * g2;
the other exponents on the later T-column are drawn from 1..3 with a
fixed seed.  The whole pipeline of one case (validate, monomialize,
coset system, graded checks, report) is one run.  The runs go in
`--repeat` rounds, each round one run of every case in ascending e, so
the repeats of one case alternate with the other cases' and lie spread
over the whole time the tool takes, not in one stretch of it.

Per case it prints the best wall time over the rounds and the
milliseconds that costs per lattice point.  A host that shares its cores
can run pure Python up to twice as slow for seconds to minutes at a time;
the best of rounds spread over the whole run is what two runs of one
checkout agree on, unless a slow stretch covers every round.  (Dividing
each run by the slowdown of a calibration loop timed beside it, as
perfbench/run.py does, was tried and tracked this memory-bound case no
better than the best of rounds.)

The last column is resident bytes per lattice point, from the first round
alone, so --repeat does not move it: the growth of this process's peak
resident set (resource.getrusage) over the peak before the first case,
divided by e.  The peak only grows, so the cases run in ascending e, and
each case's figure is its own peak unless a smaller case peaked higher.
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


def scenario(g):
    e = g[0] * g[1]
    return Scenario(name=f"points{e}", extensions=((f"points{e}",
                                                    extension(g)),),
                    residue_degree=1, semigroup=None, records=(), expect={})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    cases = [(g[0] * g[1], scenario(g)) for g in SHAPES]
    best, resident = {}, {}
    start = peak_rss_bytes()
    for round_ in range(args.repeat):
        for e, case in cases:
            report = None       # hold one report at a time
            t0 = time.perf_counter()
            report = run_pipeline(case)
            canonical_dumps(report)
            dt = time.perf_counter() - t0
            if not report["ok"]:
                raise SystemExit(f"e = {e}: pipeline reported a failed "
                                 f"check")
            best[e] = min(best.get(e, dt), dt)
            if not round_:
                resident[e] = (peak_rss_bytes() - start) / e
    print(f"{'e':>7} {'best s':>9} {'ms/point':>9} {'B/point':>9}")
    for e, _ in cases:
        print(f"{e:7d} {best[e]:9.3f} {best[e] / e * 1e3:9.4f} "
              f"{resident[e]:9.0f}")


if __name__ == "__main__":
    main()
