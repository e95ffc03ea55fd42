"""Command-line front end.

Each subcommand reads JSON (file path or standard input), writes canonical
JSON on standard output (or --out), and a short human summary on standard
error.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
parse error.  main reads, decodes and hashes the input and decides the
exit code; a cmd_* function takes the decoded object and returns
(report, summary).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from importlib import resources

from .errors import GradedValError, ParseError
from .exact_lattice import determinant, smith_normal_form
from .affine_monoids import AffineMonoid, verify_disjoint_decomposition
from .monomialization import coset_system, replay, strong_monomialize
from .monomial_extension import SSMForm
from .scenarios import (
    _run_extension_case,
    _run_ledger_section,
    _run_semigroup_section,
    load_scenario,
    run_pipeline,
)
from .serialize import (
    canonical_dumps,
    dec_extension,
    dec_ledger_records,
    dec_list,
    dec_matrix,
    dec_semigroup_section,
    dec_step,
    enc_coset_system,
    enc_int,
    enc_matrix,
    enc_trace,
    field,
    load_object,
    sha256_hex,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_input(path):
    if path in (None, "-"):
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def cmd_snf(args, data):
    A = dec_matrix(field(data, "matrix"))
    snf = smith_normal_form(A)
    check = snf.U.matmul(A).matmul(snf.V).entries == snf.D.entries
    report = {
        "U": enc_matrix(snf.U),
        "D": enc_matrix(snf.D),
        "V": enc_matrix(snf.V),
        "invariant_factors": [enc_int(d)
                              for d in snf.D.diagonal_entries() if d > 1],
        "ok": check,
    }
    summary = f"snf: diagonal {snf.D.diagonal_entries()}"
    # a non-square matrix has a Smith form but no determinant
    if A.is_square():
        det = determinant(A)
        report["determinant"] = enc_int(det)
        summary += f", det {det}"
    return report, summary


def cmd_monomialize(args, data):
    me = dec_extension(field(data, "extension", data))
    trace = strong_monomialize(me)
    report = enc_trace(trace)
    report["step_count"] = enc_int(len(trace.steps))
    report["ok"] = True
    return report, f"monomialize: {len(trace.steps)} steps"


def cmd_replay(args, data):
    initial = dec_extension(field(data, "initial"))
    steps = dec_list(field(data, "steps"), "steps", dec_step)
    expected = dec_extension(field(data, "final"))
    redone = replay(initial, steps)
    ok = redone == expected
    if ok:
        SSMForm(redone)
    report = {"replay_matches": ok, "ok": ok}
    return report, "replay: " + ("ok" if ok else "MISMATCH")


def cmd_cosets(args, data):
    me = dec_extension(field(data, "extension", data))
    trace = strong_monomialize(me)
    cs = coset_system(trace.final)
    report = enc_coset_system(cs)
    report["ok"] = True
    if args.box_bound is not None:
        A = trace.final.extension.A
        monoid = AffineMonoid(
            dim=A.rows, generators=A.entries,
            positivity_functional=_positive_functional(A))
        decomp = verify_disjoint_decomposition(cs.parallelepiped, monoid,
                                               box_bound=args.box_bound)
        report["decomposition"] = {
            "box_bound": enc_int(decomp.box_bound),
            "checked_points": enc_int(decomp.checked_points),
            "ok": decomp.ok,
        }
        report["ok"] = decomp.ok
    return report, f"cosets: e = {cs.e}"


def _positive_functional(A):
    # rows of a valid extension are nonzero nonnegative vectors, so any
    # strictly positive functional certifies pointedness
    return (1,) * A.cols


def cmd_graded(args, data):
    """run_pipeline's extension cases; the sections are decoded only."""
    scenario = load_scenario(data)
    cases = [_run_extension_case(label, me, scenario.residue_degree)
             for label, me in scenario.extensions]
    graded = {
        "scenario": scenario.name,
        "cases": [
            {k: case[k] for k in
             ("case", "e", "f", "rank", "lattice_points", "sigma_trivial",
              "failure", "ok") if k in case}
            for case in cases],
        "ok": all(c["ok"] for c in cases),
    }
    return graded, f"graded: {len(graded['cases'])} case(s)"


def cmd_semigroup(args, data):
    section = _run_semigroup_section(dec_semigroup_section(data))
    if "failure" in section:
        return section, f"semigroup: {section['failure']['error']}"
    return section, f"semigroup: {len(section['witnesses'])} witness(es)"


def cmd_ledger(args, data):
    section = _run_ledger_section(
        dec_ledger_records(field(data, "records", [])))
    return section, f"ledger: {len(section['records'])} record(s)"


def cmd_pipeline(args, data):
    if args.replay:
        return cmd_replay(args, data)
    effective_sha256 = None
    if args.seed is not None and "random" in data:
        spec = field(data, "random")
        field(spec, "seed", None, "random section")  # spec is an object
        spec["seed"] = str(args.seed)
        # input_sha256 names the bytes read; this names the scenario run
        effective_sha256 = sha256_hex(canonical_dumps(data).encode())
    scenario = load_scenario(data)
    report = run_pipeline(scenario)
    if effective_sha256 is not None:
        report["effective_sha256"] = effective_sha256
    verdict = "ok" if report["ok"] else "FAILED"
    return report, (f"pipeline {scenario.name}: {len(report['cases'])} "
                    f"case(s), {verdict}")


def bundled_scenario_names():
    root = resources.files("gradedval").joinpath("data")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_bytes(name):
    return resources.files("gradedval").joinpath("data", name).read_bytes()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedval",
        description="Exact combinatorics of graded rings along a valuation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=False):
        p.add_argument("--in", dest="infile", default=None,
                       help="input JSON file ('-' for stdin)")
        p.add_argument("--out", default=None, help="write JSON report here")
        p.add_argument("--json", action="store_true",
                       help="suppress the human-readable summary")
        if scenario:
            p.add_argument("--scenario", default=None,
                           help="scenario JSON file")

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    common(p)
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("monomialize",
                       help="normalize an extension, emit the trace")
    common(p)
    p.set_defaults(func=cmd_monomialize)

    p = sub.add_parser("cosets", help="coset representative system")
    common(p)
    p.add_argument("--box-bound", type=int, default=None,
                   help="also verify the disjoint decomposition on a box")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("graded", help="graded module decomposition summary")
    common(p, scenario=True)
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("semigroup", help="semigroup difference report")
    common(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("ledger", help="ramification record checks")
    common(p)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("pipeline", help="full scenario pipeline")
    common(p, scenario=True)
    p.add_argument("--replay", default=None,
                   help="re-verify a monomialization trace file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed of a random scenario")
    p.set_defaults(func=cmd_pipeline)

    return parser


@cache
def _parser():
    """build_parser() on the first main call, then the same parser:
    parse_args leaves it unchanged, and importing the module builds none."""
    return build_parser()


def main(argv=None):
    """Run one subcommand.  The contract every command shares is kept
    here: options are checked before any input is read; the input (the
    --replay file, else --scenario, else --in, else standard input) is read
    and decoded once; the report gets input_sha256, the sha256 of the bytes
    read, and is emitted with the command's summary; report["ok"] decides
    the exit code."""
    args = _parser().parse_args(argv)
    try:
        box_bound = getattr(args, "box_bound", None)
        if box_bound is not None and box_bound < 1:
            raise ParseError("--box-bound must be at least 1")
        raw = _read_input(getattr(args, "replay", None)
                          or getattr(args, "scenario", None) or args.infile)
        report, summary = args.func(args, load_object(raw))
        report["input_sha256"] = sha256_hex(raw)
        text = canonical_dumps(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if not args.json:
            print(summary, file=sys.stderr)
        return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GradedValError as exc:
        print(f"check failed: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
