import sys
from fractions import Fraction
from itertools import product

import pytest

from gradedval import exact_lattice, graded_algebra
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
    in Fractions: the reference for the integer character table of
    fixed_by_all_characters."""
    snf = cs.snf_at
    diag = snf.D.diagonal_entries()
    n = len(diag)
    if len(g_bar) != n or len(sigma) != n:
        raise DimensionMismatch("vector length differs from the rank")
    ug = snf.U.apply(g_bar)
    us = snf.U.apply(sigma)
    total = sum(Fraction(a * b, d) for a, b, d in zip(ug, us, diag))
    return total % 1


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
    systems = [rank1_system(1), rank1_system(2), diag_system(2, 3)]
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        systems += [coset_system(strong_monomialize(me).final)
                    for _, me in scenario.extensions]
    for cs in systems:
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
    # the invariant part is proven, and the character table runs in
    # integers: no Smith-residue membership test per lattice point
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
