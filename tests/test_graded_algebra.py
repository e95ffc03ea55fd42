import dataclasses
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from test_golden_reports import ladder_scenario

from gradedval import exact_lattice, graded_algebra, scenarios
from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names
from gradedval.errors import DimensionMismatch, GradingMismatch
from gradedval.exact_lattice import ExactMatrix, unimodular_inverse
from gradedval.graded_algebra import (
    GradedBasisLabel,
    GradedModule,
    fixed_by_all_characters,
    invariant_part,
    is_sigma_trivial,
)
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    SSMForm,
)
from gradedval.monomialization import coset_system, strong_monomialize
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    coset_label,
)
from gradedval.scenarios import Scenario, load_scenario, run_pipeline
from gradedval.serialize import load_json


def galois_character(cs, g_bar, sigma):
    """chi(g, sigma) in Q/Z via the Smith-adapted pairing of the quotient,
    in Fractions: the reference for character_table and for the cone test
    of fixed_by_all_characters."""
    snf = cs.snf_at
    diag = snf.D.diagonal_entries()
    n = len(diag)
    if len(g_bar) != n or len(sigma) != n:
        raise DimensionMismatch("vector length differs from the rank")
    ug = snf.U.apply(g_bar)
    us = snf.U.apply(sigma)
    total = sum(Fraction(a * b, d) for a, b, d in zip(ug, us, diag))
    return total % 1


def character_table(cs):
    """fixed_by_all_characters as it was before it read the walk's cone,
    kept as its oracle: an integer character table from the Smith form
    U A^t V = diag(d_1 | ... | d_n).  chi(g, sigma) = sum_i (U g)_i
    (U sigma)_i / d_i depends only on g's class, and the lattice points
    are one g per class, so sigma is fixed by all characters iff
    sum_i (U g)_i (U sigma)_i (d_n / d_i) = 0 mod d_n at every lattice
    point g (every d_i divides d_n).  Returns that test of sigma."""
    snf = cs.snf_at
    diag = snf.D.diagonal_entries()
    rows = [snf.U.apply(g) for g in cs.lattice_points]

    def fixed(sigma):
        weights = [b * (diag[-1] // d)
                   for b, d in zip(snf.U.apply(sigma), diag)]
        return all(sum(a * w for a, w in zip(row, weights)) % diag[-1] == 0
                   for row in rows)
    return fixed


def check_characters_against_table(cs, seed, draws=12):
    """fixed_by_all_characters against character_table at every lattice
    point and at seeded sigma off them: each unit vector, each row of A
    (in A^t Z^n), each lattice point shifted by a seeded combination of
    rows of A (its own class, off the points when the shift is nonzero)
    and seeded vectors with entries in [-2e, 2e].  A non-T row of A is a
    unit vector, so these sigma have nonzero non-T coordinates.  Returns
    how many sigma off the lattice points are fixed."""
    rng = random.Random(seed)
    me = cs.extension
    n, rows = me.blocks.n, me.A.entries
    mod = GradedModule(system=cs, residue_degree=1)
    table = character_table(cs)
    for sigma in cs.lattice_points:
        assert fixed_by_all_characters(mod, sigma) == table(sigma), sigma
    off = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    off += rows
    for p in cs.lattice_points[:draws]:
        k = [rng.randint(-2, 2) for _ in range(n)]
        off.append(tuple(x + sum(c * row[j] for c, row in zip(k, rows))
                         for j, x in enumerate(p)))
    off += [tuple(rng.randint(-2 * cs.e, 2 * cs.e) for _ in range(n))
            for _ in range(draws)]
    fixed = 0
    for sigma in off:
        verdict = fixed_by_all_characters(mod, sigma)
        assert verdict == table(sigma), sigma
        fixed += verdict
    return fixed


def corpus_systems():
    """The coset systems of the 22 bundled extensions."""
    return [coset_system(strong_monomialize(me).final)
            for name in bundled_scenario_names()
            for _, me in load_scenario(
                load_json(bundled_scenario_bytes(name))).extensions]


def basis_labels(module):
    """Every basis label of the module, one per pair (lattice point,
    residue index): the reference for GradedModule.rank and for the f
    labels of invariant_part."""
    return tuple(
        GradedBasisLabel(sigma=sigma, residue_index=i)
        for sigma in module.system.lattice_points
        for i in range(1, module.residue_degree + 1))


def quotient_group_elements(cs):
    """Representatives of Z^n / A^t Z^n, one per residue class: the Smith
    residue vectors c with 0 <= c_i < d_i of U A^t V = D, lifted back
    through U^{-1}.  An oracle independent of the parallelepiped points."""
    diag = cs.snf_at.D.diagonal_entries()
    uinv = unimodular_inverse(cs.snf_at.U)
    return tuple(tuple(uinv.apply(residues))
                 for residues in product(*[range(d) for d in diag]))


def rank1_system(a):
    """Single variable x = y^a: e = a."""
    blocks = BlockStructure(r=1, t=(1,), s=(1,))
    structure = GroupStructure((Block(),))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[a]]),
        unit_markers=("1",),
        y_values=(structure.element(((1,),)),),
    )
    return coset_system(SSMForm(me))


def diag_system(a, b):
    """Two independent blocks, x_i = y_i^{d_i}: e = a * b."""
    blocks = BlockStructure(r=2, t=(1, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.diagonal((a, b)),
        unit_markers=("1", "1"),
        y_values=(structure.element(((1,), (0,))),
                  structure.element(((0,), (1,)))),
    )
    return coset_system(SSMForm(me))


def test_free_rank():
    # the module is free of rank e * f on its basis labels
    for cs, f, rank in ((rank1_system(1), 1, 1), (diag_system(2, 3), 1, 6),
                        (rank1_system(2), 3, 6)):
        mod = GradedModule(system=cs, residue_degree=f)
        assert len(basis_labels(mod)) == rank


def test_rank_counts_the_basis_labels():
    # GradedModule.rank is the size of Lambda x {1..f}, without the labels
    for cs in (rank1_system(1), rank1_system(2), diag_system(2, 3),
               *corpus_systems()):
        for f in (1, 2, 3):
            mod = GradedModule(system=cs, residue_degree=f)
            assert mod.rank == len(basis_labels(mod)) == cs.e * f


def test_pipeline_case_builds_only_the_invariant_labels(monkeypatch):
    # the rank is counted, so one case builds the f labels of
    # invariant_part and no other
    built = []
    real = graded_algebra.GradedBasisLabel

    def counting(**kw):
        built.append(kw)
        return real(**kw)

    monkeypatch.setattr(graded_algebra, "GradedBasisLabel", counting)
    _, me = load_scenario(
        load_json(bundled_scenario_bytes("diag23.json"))).extensions[0]
    for f in (1, 3):
        built.clear()
        scenario = Scenario(name="labels", extensions=(("labels", me),),
                            residue_degree=f, semigroup=None, records=(),
                            expect={})
        case = run_pipeline(scenario)["cases"][0]
        assert case["ok"] and case["e"] == "6"
        assert case["rank"] == str(6 * f)
        assert len(built) == f


def test_basis_labels_count_and_coset_exhaustion():
    # test_monomialization imports this module, so its oracles load late
    from test_monomialization import small_group_of, value_of
    cs = diag_system(2, 3)
    small = small_group_of(cs)
    for f in (1, 2):
        mod = GradedModule(system=cs, residue_degree=f)
        labels = basis_labels(mod)
        assert len(labels) == 6 * f
        counts = {}
        for lbl in labels:
            value = value_of(cs.extension, lbl.sigma)
            rep = coset_label(value, cs.big_group, small)
            counts[rep.flat()] = counts.get(rep.flat(), 0) + 1
        assert len(counts) == 6
        assert all(c == f for c in counts.values())


def test_galois_identity_action():
    # the identity of the quotient group twists no lattice point
    for cs in (rank1_system(2), diag_system(2, 3)):
        zero = (0,) * len(cs.lattice_points[0])
        for sigma in cs.lattice_points:
            assert galois_character(cs, zero, sigma) == 0


def test_galois_nontrivial_action_e2():
    cs = rank1_system(2)
    assert galois_character(cs, (1,), (0,)) == 0
    assert galois_character(cs, (1,), (1,)) == Fraction(1, 2)


def test_galois_character_rejects_wrong_lengths():
    cs = diag_system(2, 3)
    for g, sigma in (((1,), (0, 1)), ((1, 0), (0, 1, 0)), ((), ())):
        with pytest.raises(DimensionMismatch):
            galois_character(cs, g, sigma)


def test_sigma_zero_support_fixed_by_all():
    cs = diag_system(2, 3)
    for g in quotient_group_elements(cs):
        assert galois_character(cs, g, (0, 0)) == 0


def test_quotient_group_enumeration():
    cs = diag_system(2, 3)
    reps = quotient_group_elements(cs)
    assert len(reps) == 6
    # pairwise distinct modulo the image lattice
    for i in range(6):
        for j in range(i + 1, 6):
            diff = tuple(a - b for a, b in zip(reps[i], reps[j]))
            assert not is_sigma_trivial(cs, diff)


def test_invariant_part_whole_module_when_trivial():
    cs = rank1_system(1)
    mod = GradedModule(system=cs, residue_degree=2)
    assert invariant_part(mod) == basis_labels(mod)


def test_invariant_part_is_fixed_set():
    cs = diag_system(2, 3)
    mod = GradedModule(system=cs, residue_degree=1)
    inv = invariant_part(mod)
    assert [lbl.sigma for lbl in inv] == [(0, 0)]
    for lbl in basis_labels(mod):
        assert fixed_by_all_characters(mod, lbl.sigma) == \
            (lbl in inv)


def test_residue_degree_validation():
    with pytest.raises(GradingMismatch):
        GradedModule(system=rank1_system(2), residue_degree=0)


def test_pipeline_decides_the_invariant_part_without_membership_tests(
        monkeypatch):
    # the invariant part is proven, and the character check reads the
    # walk's cone: no Smith-residue membership test per lattice point
    real = exact_lattice.in_column_lattice
    calls = []

    def counting(snf, b):
        calls.append(b)
        return real(snf, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("gradedval") and \
                getattr(module, "in_column_lattice", None) is real:
            monkeypatch.setattr(module, "in_column_lattice", counting)
    scenario = load_scenario(load_json(bundled_scenario_bytes("diag23.json")))
    report = run_pipeline(scenario)
    assert report["ok"]
    assert report["cases"][0]["sigma_trivial"] == [["0", "0"]]
    assert calls == []


def test_characters_match_the_table_on_bundled_scenarios():
    systems = corpus_systems()
    assert len(systems) == 22
    fixed = [check_characters_against_table(cs, seed)
             for seed, cs in enumerate(systems)]
    # the unit vectors of the non-T coordinates and the rows of A are
    # fixed, so every system has fixed sigma off its lattice points
    assert all(fixed)
    assert any(cs.extension.blocks.n > len(cs.extension.blocks.t_indices())
               for cs in systems)


def test_characters_match_the_table_on_golden_ladder():
    for seed, (_, me) in enumerate(ladder_scenario().extensions):
        cs = coset_system(strong_monomialize(me).final)
        assert check_characters_against_table(cs, seed, draws=6)


def test_pipeline_case_takes_one_smith_diagonal_of_the_t_block(monkeypatch):
    # e and the invariant factors come from the Smith diagonal of the
    # T-block, with no transforms, and the character check from the
    # walk's cone: a case makes no smith_normal_form call and one
    # quotient_invariants call, on the |T| x |T| block alone; the n x n
    # Smith form of A^t is taken only when snf_at is read
    real = exact_lattice.smith_normal_form
    real_diagonal = exact_lattice.quotient_invariants
    calls, diagonals, systems = [], [], []

    def counting(A):
        calls.append((A.rows, A.cols))
        return real(A)

    def spying(A):
        diagonals.append((A.rows, A.cols))
        return real_diagonal(A)

    for name, module in list(sys.modules.items()):
        if not name.startswith("gradedval"):
            continue
        if getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
        if getattr(module, "quotient_invariants", None) is real_diagonal:
            monkeypatch.setattr(module, "quotient_invariants", spying)
    real_coset_system = scenarios.coset_system

    def keeping(ssm):
        systems.append(real_coset_system(ssm))
        return systems[-1]

    monkeypatch.setattr(scenarios, "coset_system", keeping)
    scenario = load_scenario(load_json(bundled_scenario_bytes(
        "rank2_h2.json")))
    report = run_pipeline(scenario)
    assert report["ok"]
    checks = [c["name"] for c in report["cases"][0]["checks"]]
    assert "invariant_is_fixed_set" in checks
    [cs] = systems
    t = len(cs.extension.blocks.t_indices())
    assert t < cs.extension.blocks.n
    assert calls == []
    assert diagonals == [(t, t)]
    assert "snf_at" not in cs.__dict__
    assert cs.snf_at == real(cs.extension.A.transpose())


def _spy_determinant(monkeypatch):
    """The argument of every exact_lattice.determinant call made, from
    now on, through any gradedval module."""
    real = exact_lattice.determinant
    arguments = []

    def counting(A):
        arguments.append(A)
        return real(A)

    for name, module in list(sys.modules.items()):
        if name.startswith("gradedval") and \
                getattr(module, "determinant", None) is real:
            monkeypatch.setattr(module, "determinant", counting)
    return arguments


def _g_blocks(me):
    return [me.g_block(b) for b in range(me.blocks.r)]


def test_pipeline_case_takes_one_determinant_per_g_block(monkeypatch):
    # |det A_T| is the product of the G-block determinants that validate
    # takes, so no elimination of A_T is made for it; the check that the
    # rewriting kept it reads e off the Smith form of the final T-block
    # that the coset system takes anyway
    scenario = load_scenario(load_json(bundled_scenario_bytes(
        "rank2_h2.json")))
    (_, me), = scenario.extensions
    assert me.blocks.r == 2
    arguments = _spy_determinant(monkeypatch)
    report = run_pipeline(scenario)
    assert report["ok"]
    assert {"name": "t_determinant_preserved", "passed": True} in \
        report["cases"][0]["checks"]
    assert arguments == _g_blocks(me)
    assert me.t_submatrix() not in arguments


def test_pipeline_eliminates_each_g_block_once_and_nothing_else(
        monkeypatch):
    # on the corpus and the golden ladder, each extension freshly made so
    # that no determinant is cached: every determinant the pipeline takes
    # is of a G-block of its case, one per G-block, in case order; none is
    # of A_T or A, so where A_T is not itself a G-block it never appears
    scenarios_run = [load_scenario(load_json(bundled_scenario_bytes(name)))
                     for name in bundled_scenario_names()]
    scenarios_run.append(ladder_scenario())
    fresh = [dataclasses.replace(sc, extensions=tuple(
        (label, dataclasses.replace(me)) for label, me in sc.extensions))
        for sc in scenarios_run]
    cases = [me for sc in fresh for _, me in sc.extensions]
    assert len(cases) == 27
    assert not any("_g_determinants" in me.__dict__ for me in cases)
    arguments = _spy_determinant(monkeypatch)
    for sc in fresh:
        run_pipeline(sc)
    assert arguments == [g for me in cases for g in _g_blocks(me)]
    wide = [me for me in cases if me.blocks.r > 1]
    assert wide
    for me in wide:
        assert me.t_submatrix() not in arguments
        assert me.A not in arguments


def test_random_draws_take_determinants_of_1x1_g_blocks_only(monkeypatch):
    # a draw is accepted on the product of its G-block determinants, each
    # 1 x 1 since s = (1, ..., 1), not on a Bareiss pass over its n x n A;
    # an accepted draw keeps them, so its case eliminates nothing again
    arguments = _spy_determinant(monkeypatch)
    scenario = load_scenario(load_json(bundled_scenario_bytes(
        "random_a.json")))
    assert arguments
    assert {(A.rows, A.cols) for A in arguments} == {(1, 1)}
    assert max(me.blocks.n for _, me in scenario.extensions) > 1
    arguments.clear()
    report = run_pipeline(scenario)
    assert report["ok"]
    assert arguments == []


def test_t_determinant_check_reads_the_coset_systems_e(monkeypatch):
    # a coset system whose e is not |det A_T| of the input fails the
    # check, so it compares two computations and is not true by design
    real = scenarios.coset_system
    monkeypatch.setattr(scenarios, "coset_system",
                        lambda ssm: dataclasses.replace(real(ssm), e=3))
    report = run_pipeline(load_scenario(load_json(bundled_scenario_bytes(
        "rank2_h2.json"))))
    case, = report["cases"]
    checks = {c["name"]: c["passed"] for c in case["checks"]}
    assert checks["t_determinant_preserved"] is False
    assert case["e"] == "3" and case["ok"] is False
