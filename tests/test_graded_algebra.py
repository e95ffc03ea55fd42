import random
from fractions import Fraction
from itertools import product

import pytest

from gradedval.errors import DimensionMismatch, GradingMismatch, ZeroElement
from gradedval.exact_lattice import ExactMatrix, unimodular_inverse
from gradedval.graded_algebra import (
    GradedAlgebra,
    GradedModule,
    base_change_unramified,
    element_value,
    expand,
    fixed_by_all_characters,
    free_rank,
    galois_character,
    galois_character_action,
    invariant_part,
    invariant_projection,
    is_sigma_trivial,
)
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    SSMForm,
)
from gradedval.monomialization import coset_system
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    ValueGroup,
    coset_label,
)
from gradedval.value_semigroups import ValueSemigroup


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


RANK1 = GroupStructure((Block(),))


def q(x):
    return RANK1.element(((Fraction(x),),))


def sample_algebra():
    ambient = ValueGroup(RANK1, (q(1), q(Fraction(5, 2))))
    sg = ValueSemigroup(ambient=ambient,
                        generators=(q(1), q(Fraction(5, 2))))
    return GradedAlgebra(semigroup=sg, residue_degree=1)


def test_base_change_unramified():
    g = sample_algebra()
    assert base_change_unramified(g, 1) == g
    g2 = base_change_unramified(g, 2)
    assert g2.semigroup == g.semigroup
    assert g2.residue_degree == 2
    assert base_change_unramified(g2, 3).residue_degree == 6
    assert base_change_unramified(base_change_unramified(g, 2), 3) == \
        base_change_unramified(g, 6)


def test_free_rank():
    assert free_rank(rank1_system(1), 1) == 1
    assert free_rank(diag_system(2, 3), 1) == 6
    assert free_rank(rank1_system(2), 3) == 6


def test_basis_labels_count_and_coset_exhaustion():
    cs = diag_system(2, 3)
    for f in (1, 2):
        mod = GradedModule(system=cs, residue_degree=f)
        labels = mod.basis_labels()
        assert len(labels) == 6 * f
        counts = {}
        for lbl in labels:
            rep = coset_label(mod.value_map(lbl.sigma),
                              cs.big_group, cs.small_group)
            counts[rep.flat()] = counts.get(rep.flat(), 0) + 1
        assert len(counts) == 6
        assert all(c == f for c in counts.values())


def test_element_value_single_term():
    mod = GradedModule(system=rank1_system(2), residue_degree=1)
    x = mod.element([((0,), q(3), (1,))])
    assert element_value(x) == q(3)


def test_element_value_two_terms():
    mod = GradedModule(system=rank1_system(2), residue_degree=1)
    # term values 1 and 1/2 + nu(y) = 3/2
    x = mod.element([((0,), q(1), (1,)), ((1,), q(Fraction(1, 2)), (2,))])
    assert element_value(x) == q(1)


def test_element_value_zero_raises():
    mod = GradedModule(system=rank1_system(2), residue_degree=1)
    with pytest.raises(ZeroElement):
        element_value(mod.zero())


def test_valuation_axiom_on_sums():
    rng = random.Random(31)
    mod = GradedModule(system=rank1_system(2), residue_degree=1)
    for _ in range(40):
        def rand_element():
            terms = []
            for sigma in ((0,), (1,)):
                if rng.random() < 0.7:
                    terms.append((sigma, q(rng.randint(0, 4)),
                                  (rng.randint(-3, 3),)))
            return mod.element(terms)
        x, y = rand_element(), rand_element()
        s = x + y
        if x.is_zero() or y.is_zero() or s.is_zero():
            continue
        vx, vy, vs = element_value(x), element_value(y), element_value(s)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_expand_roundtrip():
    rng = random.Random(8)
    mod = GradedModule(system=diag_system(2, 3), residue_degree=2)
    for _ in range(30):
        terms = []
        for sigma in mod.system.lattice_points:
            if rng.random() < 0.5:
                terms.append((sigma,
                              mod.system.big_group.structure.element(
                                  ((rng.randint(0, 3),),
                                   (rng.randint(0, 3),))),
                              (rng.randint(-2, 2), rng.randint(-2, 2))))
        x = mod.element(terms)
        parts = expand(x)
        assert len(parts) == len({t.sigma for t in x.terms})
        total = mod.zero()
        for _, comp in parts:
            total = total + comp
        assert total == x


def test_galois_identity_action():
    cs = rank1_system(2)
    mod = GradedModule(system=cs, residue_degree=1)
    x = mod.element([((0,), q(1), (1,)), ((1,), q(0), (1,))])
    assert galois_character_action((0,), x) == x


def test_galois_nontrivial_action_e2():
    cs = rank1_system(2)
    assert galois_character(cs, (1,), (0,)) == 0
    assert galois_character(cs, (1,), (1,)) == Fraction(1, 2)
    mod = GradedModule(system=cs, residue_degree=1)
    x = mod.element([((0,), q(1), (1,)), ((1,), q(0), (1,))])
    y = galois_character_action((1,), x)
    phases = {t.sigma: t.phase for t in y.terms}
    assert phases[(0,)] == 0
    assert phases[(1,)] == Fraction(1, 2)


def test_galois_character_rejects_wrong_lengths():
    cs = diag_system(2, 3)
    for g, sigma in (((1,), (0, 1)), ((1, 0), (0, 1, 0)), ((), ())):
        with pytest.raises(DimensionMismatch):
            galois_character(cs, g, sigma)


def test_sigma_zero_support_fixed_by_all():
    cs = diag_system(2, 3)
    mod = GradedModule(system=cs, residue_degree=1)
    x = mod.element([((0, 0), q(2), (5,))])
    for g in quotient_group_elements(cs):
        assert galois_character_action(g, x) == x


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
    assert invariant_part(mod) == mod.basis_labels()


def test_invariant_part_is_fixed_set():
    cs = diag_system(2, 3)
    mod = GradedModule(system=cs, residue_degree=1)
    inv = invariant_part(mod)
    assert [lbl.sigma for lbl in inv] == [(0, 0)]
    for lbl in mod.basis_labels():
        assert fixed_by_all_characters(mod, lbl.sigma) == \
            (lbl in inv)


def test_invariant_projection():
    cs = diag_system(2, 3)
    mod = GradedModule(system=cs, residue_degree=1)
    two = cs.big_group.structure.element(((2,), (0,)))
    x = mod.element([((0, 0), two, (1,)), ((1, 2), two, (4,))])
    p = invariant_projection(x)
    assert [t.sigma for t in p.terms] == [(0, 0)]


def test_residue_degree_validation():
    with pytest.raises(GradingMismatch):
        GradedModule(system=rank1_system(2), residue_degree=0)
