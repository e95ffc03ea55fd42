"""Running one generated case through gradedval, as a caller would."""

from __future__ import annotations

import contextlib
import io
import json
import sys


class Program:
    """gradedval entry points, looked up at call time so tracing sees them."""

    def __init__(self):
        from gradedval import affine_monoids, cli, monomialization
        from gradedval import scenarios, serialize
        self.affine = affine_monoids
        self.cli = cli
        self.mono = monomialization
        self.scenarios = scenarios
        self.serialize = serialize

    def decode(self, case):
        """The program's own decoding of the case input (part of set-up)."""
        kind = case["kind"]
        if kind == "cli":
            return self.cli.bundled_scenario_bytes(case["bundled"])
        data = self.serialize.load_json(case["data"])
        if kind == "pipeline":
            return self.scenarios.load_scenario(data)
        return self.serialize.dec_extension(data)

    def run(self, case, decoded):
        """Run one case; returns (report bytes, exit code)."""
        kind = case["kind"]
        if kind == "pipeline":
            report = self.scenarios.run_pipeline(decoded)
            return self.serialize.canonical_dumps(report).encode(), 0
        if kind == "cli":
            return self._cli(case["argv"], decoded)
        return self._decomp(decoded, case["box"]), 0

    def _cli(self, argv, stdin_bytes):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes))
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return out.getvalue().encode(), code

    def _decomp(self, me, box):
        # the steps of `gradedval cosets --box-bound`, without the coset
        # system, so ordered_groups is not on this path
        trace = self.mono.strong_monomialize(me)
        A = trace.final.extension.A
        basis = self.affine.parallelepiped_points(A.entries)
        monoid = self.affine.AffineMonoid(
            dim=A.rows, generators=A.entries,
            positivity_functional=(1,) * A.cols)
        result = self.affine.verify_disjoint_decomposition(
            basis, monoid, box_bound=box)
        report = {
            "e": str(basis.index),
            "points": [[str(x) for x in p] for p in basis.points],
            "checked_points": str(result.checked_points),
            "final_A": [[str(x) for x in row] for row in A.entries],
            "ok": result.ok,
        }
        return json.dumps(report, sort_keys=True,
                          separators=(",", ":")).encode()
