"""Scenario files and the batch pipeline.

A scenario bundles a monomial extension (or a seeded random family of
them), a residue degree, and optional semigroup and ledger sections.  The
pipeline validates, monomializes, builds the coset system, checks the
graded module rank and invariant part, and reports every check in a
deterministic JSON-ready structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .errors import EnumerationOverflow, GradedValError, ParseError
from .exact_lattice import ExactMatrix
from .graded_algebra import (
    GradedModule,
    check_grading,
    fixed_by_all_characters,
    invariant_part,
)
from .monomial_extension import (
    BlockStructure,
    MonomialExtension,
    validate,
)
from .monomialization import coset_system, replay, strong_monomialize
from .ordered_groups import (
    Block,
    GroupStructure,
    ValueGroup,
)
from .ramification import ExtensionRecord, unramified_criterion
from .serialize import (
    dec_extension,
    dec_int,
    dec_ledger_records,
    dec_semigroup_section,
    enc_coset_system,
    enc_element,
    enc_int,
    enc_matrix,
    field,
)
from .value_semigroups import ValueSemigroup, semigroup_difference


def compatible_values(blocks, A, t_values):
    """Value assignment whose relation lattice lies inside A^t Z^n.

    T-variables take the supplied rationally independent values.  A non-T
    variable m in block b takes sum_{j in T} (A[t_b][j] - A[m][j]) * nu(y_j)
    with t_b the block's first T-row: the relation it satisfies is
    A^t(e_{t_b} - e_m), so the quotient of value groups stays isomorphic to
    Z^n / A^t Z^n and the coset-system hypotheses hold.
    """
    tlist = blocks.t_indices()
    values = dict(zip(tlist, t_values))
    structure = t_values[0].structure
    for m in range(blocks.n):
        if m in values:
            continue
        tb = blocks.offset(blocks.block_of(m))
        v = structure.zero()
        for j in tlist:
            c = A[tb, j] - A[m, j]
            if c:
                v = v + values[j].scale(c)
        values[m] = v
    return tuple(values[j] for j in range(blocks.n))


def random_theorem48_extension(rng, r_max=3, t_max=2, h_max=3, g_max=3):
    """Random valid extension in the supported row shape, rank-1 blocks."""
    r = rng.randint(1, r_max)
    t = tuple(rng.randint(1, t_max) for _ in range(r))
    blocks = BlockStructure(r=r, t=t, s=(1,) * r)
    structure = GroupStructure(tuple(Block() for _ in range(r)))
    t_values = tuple(
        structure.element(tuple((1,) if k == b else (0,) for k in range(r)))
        for b in range(r))
    tlist = blocks.t_indices()
    block = tuple(map(blocks.block_of, range(blocks.n)))
    rows = [[0] * blocks.n for _ in range(blocks.n)]
    for i in range(blocks.n):
        bi = block[i]
        rows[i][i] = rng.randint(1, g_max) if i in tlist else 1
        for j in tlist:
            if block[j] > bi:
                rows[i][j] = rng.randint(0, h_max)
    A = ExactMatrix.from_rows(rows)
    return MonomialExtension(
        blocks=blocks,
        A=A,
        unit_markers=("1",) * blocks.n,
        y_values=compatible_values(blocks, A, t_values),
    )


# draws random_extension_bounded makes before it gives up; with the
# default shape a draw has |det A| = 1 with probability at least 1/27, so
# a valid e_max exhausts it with probability below 10^-160
_RANDOM_ATTEMPTS = 10_000
# most extensions one random section may ask for (the bundled ones ask for
# 5 and 8); they are all drawn at decode, before any case runs
_RANDOM_COUNT_MAX = 1_000


def random_extension_bounded(rng, e_max=24, **kwargs):
    """Random extension whose exponent determinant stays within e_max.

    Draws until one fits, at most _RANDOM_ATTEMPTS times, then raises
    EnumerationOverflow; for e_max < 1 it raises at once, since no
    extension has |det A| < 1.  Every draw has the zero pattern of the
    required shape, so |det A| is the product of its G-block determinants
    (MonomialExtension._g_determinants proves it); an accepted draw keeps
    them, so its validate eliminates nothing again.
    """
    if e_max < 1:
        raise EnumerationOverflow(
            f"no extension has |det A| <= e_max = {e_max}")
    for _ in range(_RANDOM_ATTEMPTS):
        me = random_theorem48_extension(rng, **kwargs)
        if 1 <= abs(prod(me._g_determinants)) <= e_max:
            return me
    raise EnumerationOverflow(
        f"no extension with |det A| <= {e_max} in {_RANDOM_ATTEMPTS} draws")


@dataclass(frozen=True)
class Scenario:
    name: str
    extensions: tuple          # (label, MonomialExtension) pairs
    residue_degree: int
    semigroup: dict | None
    records: tuple
    expect: dict               # decoded: {"e": int} or {}


def load_scenario(data) -> Scenario:
    """The scenario of a JSON object, every field decoded before any case."""
    name = field(data, "name")
    if not isinstance(name, str):
        raise ParseError(f"scenario name must be a string, not {name!r}")
    f = dec_int(field(data, "residue_degree", "1"))
    extensions = []
    if "extension" in data:
        extensions.append((name, dec_extension(field(data, "extension"))))
    if "random" in data:
        spec = field(data, "random")
        seed = dec_int(field(spec, "seed", "0", "random section"))
        count = dec_int(field(spec, "count", "5"))
        if not 0 <= count <= _RANDOM_COUNT_MAX:
            raise ParseError(f"random.count must be in [0, "
                             f"{_RANDOM_COUNT_MAX}], not {count}")
        e_max = dec_int(field(spec, "e_max", "24"))
        if e_max < 1:
            # no extension has |det A| < 1, so the sampling would not end
            raise ParseError(f"random.e_max must be at least 1, not {e_max}")
        rng = random.Random(seed)
        for k in range(count):
            extensions.append(
                (f"{name}[{k}]", random_extension_bounded(rng, e_max=e_max)))
    semigroup = None
    if "semigroups" in data:
        semigroup = dec_semigroup_section(field(data, "semigroups"))
    records = dec_ledger_records(field(data, "extension_records", []))
    expect = field(data, "expect", {})
    e = field(expect, "e", None)
    return Scenario(name=name, extensions=tuple(extensions),
                    residue_degree=f, semigroup=semigroup, records=records,
                    expect={"e": dec_int(e)} if "e" in expect else {})


# largest e for the character check (e * n^2 per case); the limit stays
# only so that the reports' check lists keep their bytes
_CHARACTER_LIMIT = 24


def _run_extension_case(label, me, f):
    """Report of one extension.  A GradedValError ends this case, not the
    pipeline: the case then records the stage it failed in and the error.

    Each fact is decided once, before the work that needs it.  t_det =
    |det A_T| of the input is the product of the G-block determinants
    that validate took (MonomialExtension._g_determinants proves it), so
    no elimination of A_T or A is made for it.  The graded refusals
    (check_grading) run at stage "graded" before the rewriting, on t_det:
    no step changes a T-row, and the final form has A = diag(I, A_T) up to
    a permutation, so t_det = |det A| = e, the walk's point count
    (coset_system).  t_determinant_preserved compares t_det, Bareiss on
    the input's G-blocks, with cs.e, the Smith diagonal of the final
    T-block that coset_system takes: two independent computations.
    """
    stage = "validate"
    try:
        report = {"case": label}
        checks = []
        problems = validate(me)
        report["validation"] = [
            {"kind": v.kind, "location": [enc_int(x) for x in v.location],
             "message": v.message} for v in problems]
        checks.append(("valid_input", not problems))
        if problems:
            report["ok"] = False
            report["checks"] = [{"name": n, "passed": p} for n, p in checks]
            return report
        t_det = abs(prod(me._g_determinants))
        stage = "graded"
        check_grading(t_det, f)
        stage = "monomialize"
        trace = strong_monomialize(me)
        final = trace.final.extension
        stage = "replay"
        redone = replay(trace.initial, trace.steps)
        checks.append(("replay_matches", redone == final))
        checks.append(("values_positive",  # proof: _Rewrite._substitute
                       all(final.structure.row_sign(row) > 0
                           for row in final._value_rows[1])))
        report["steps"] = enc_int(len(trace.steps))
        stage = "coset_system"
        cs = coset_system(trace.final)
        checks.append(("t_determinant_preserved", cs.e == t_det))
        stage = "graded"
        mod = GradedModule(system=cs, residue_degree=f)
        checks.append(("rank_is_e_times_f", mod.rank == cs.e * f))
        # each basis label repeats its lattice point's coset label f times,
        # so the e*f labels fill every coset f times iff e labels differ
        checks.append(("cosets_exhausted",
                       len(set(cs.label_rows)) == cs.e))
        inv = invariant_part(mod)
        checks.append(("invariant_rank_f", len(inv) == f))
        trivial = list(dict.fromkeys(lbl.sigma for lbl in inv))
        if cs.e <= _CHARACTER_LIMIT:
            fixed = [p for p in cs.lattice_points
                     if fixed_by_all_characters(mod, p)]
            checks.append(("invariant_is_fixed_set", fixed == trivial))
        report.update(enc_coset_system(cs))
        report.update({
            "f": enc_int(f),
            "rank": enc_int(mod.rank),
            "sigma_trivial": [[enc_int(x) for x in p] for p in trivial],
            "final_A": enc_matrix(final.A),
        })
        report["checks"] = [{"name": n, "passed": p} for n, p in checks]
        report["ok"] = all(p for _, p in checks)
        return report
    except GradedValError as exc:
        return {"case": label, **_failure(stage, exc)}


def _failure(stage, exc):
    """The verdict of a case or section that exc ended in stage."""
    return {"ok": False,
            "failure": {"stage": stage,
                        "error": f"{exc.__class__.__name__}: {exc}"}}


def _run_semigroup_section(sg):
    """Report of a semigroup section.  semigroup_difference refuses small
    outside big, so the groups are equal iff big's generators lie in
    small's, whatever the ranks.  A GradedValError ends the section,
    which reports it as a case does."""
    structure = sg["structure"]
    try:
        small = ValueSemigroup(ambient=ValueGroup(structure, sg["small"]),
                               generators=sg["small"])
        big = ValueSemigroup(ambient=ValueGroup(structure, sg["big"]),
                             generators=sg["big"])
        witnesses = semigroup_difference(small, big, sg["bound"])
    except GradedValError as exc:
        return _failure("semigroup", exc)
    groups_equal = all(small.ambient.contains(g) for g in big.generators)
    return {
        "witnesses": [enc_element(w) for w in witnesses],
        "groups_equal": groups_equal,
        "expected_growth": sg["expect_growth"],
        "ok": bool(witnesses) == sg["expect_growth"] and groups_equal,
    }


def _run_ledger_section(records):
    """Checks of decoded ledger records (dec_ledger_records): a record's
    domain error, such as Inconsistent, is reported against the record."""
    out = []
    ok = True
    for fields, expect_error, unramified in records:
        try:
            rec = ExtensionRecord(**fields)
        except GradedValError as exc:
            entry = {"error": str(exc), "ok": expect_error}
        else:
            entry = {"delta": enc_int(rec.delta), "ok": not expect_error}
            if rec.d is not None:
                entry["r"] = enc_int(rec.r)
                entry["unramified"] = unramified_criterion(rec)
                if unramified is not None:
                    entry["ok"] = (entry["ok"]
                                   and entry["unramified"] == unramified)
        ok = ok and entry["ok"]
        out.append(entry)
    return {"records": out, "ok": ok}


def run_pipeline(scenario: Scenario):
    """Full report for one scenario; report["ok"] is the overall verdict."""
    report = {"scenario": scenario.name}
    report["cases"] = cases = [
        _run_extension_case(label, me, scenario.residue_degree)
        for label, me in scenario.extensions]
    ok = all(c["ok"] for c in cases)
    if "e" in scenario.expect and cases:
        e = enc_int(scenario.expect["e"])
        matches = all(c.get("e") == e for c in cases)
        report["expected_e_matches"] = matches
        ok = ok and matches
    if scenario.semigroup is not None:
        section = _run_semigroup_section(scenario.semigroup)
        ok = ok and section["ok"]
        report["semigroup"] = section
    if scenario.records:
        section = _run_ledger_section(scenario.records)
        ok = ok and section["ok"]
        report["ledger"] = section
    report["ok"] = ok
    return report
