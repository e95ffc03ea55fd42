import random
from fractions import Fraction

import pytest

from gradedval import monomial_extension
from gradedval.errors import InvalidExtension, NonPositiveValue
from gradedval.exact_lattice import ExactMatrix, determinant
from gradedval.monomial_extension import (
    AdjointRelations,
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
    induced_x_values,
    validate,
)
from gradedval.ordered_groups import Block, GroupStructure


def simple_extension(A_rows, blocks=None, y_vals=None):
    """Rank-1 block with two variables unless overridden."""
    if blocks is None:
        blocks = BlockStructure(r=1, t=(2,), s=(2,))
    structure = GroupStructure(tuple(
        Block(quad=5) if s == 2 else Block() for s in blocks.s))
    if y_vals is None:
        # independent values 1 and sqrt(5) in a rank-2 block
        y_vals = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    values = tuple(structure.element(_group_coords(structure, v))
                   for v in y_vals)
    return MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows(A_rows),
        unit_markers=("1",) * blocks.n,
        y_values=values,
    )


def _group_coords(structure, flat):
    coords = []
    pos = 0
    for b in structure.blocks:
        coords.append(tuple(flat[pos:pos + b.rational_rank]))
        pos += b.rational_rank
    return coords


def test_identity_extension_valid():
    me = simple_extension([[1, 0], [0, 1]])
    assert validate(me) == []


def test_validate_checks_once_and_returns_fresh_lists(monkeypatch):
    me = simple_extension([[2, -1], [0, 3]])     # one negative exponent
    calls = []
    real = monomial_extension.determinant

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(monomial_extension, "determinant", counting)
    first = validate(me)
    assert calls and first
    done = len(calls)
    second = validate(me)
    assert len(calls) == done       # no new work on the same object
    assert second == first and second is not first
    first.clear()
    assert validate(me) == second


def test_zero_pattern_breach_on_non_t_column():
    blocks = BlockStructure(r=1, t=(2,), s=(1,))
    structure = GroupStructure((Block(),))
    values = (structure.element(((2,),)), structure.element(((1,),)))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[2, 1], [0, 1]]),
        unit_markers=("1", "1"),
        y_values=values,
    )
    problems = validate(me)
    assert len(problems) == 1
    assert problems[0].kind == "zero_pattern"
    assert problems[0].location == (0, 1)


def test_singular_block_violation():
    blocks = BlockStructure(r=1, t=(1,), s=(1,))
    structure = GroupStructure((Block(),))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[0]]),
        unit_markers=("1",),
        y_values=(structure.element(((1,),)),),
    )
    kinds = {v.kind for v in validate(me)}
    assert "singular_block" in kinds


def test_dependent_t_values_flagged():
    me = simple_extension([[1, 0], [0, 1]],
                          y_vals=((1, 0), (2, 0)))
    kinds = {v.kind for v in validate(me)}
    assert "dependent_values" in kinds


def test_misplaced_block_value_flagged():
    blocks = BlockStructure(r=2, t=(1, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    values = (structure.element(((0,), (1,))),   # should live in block 0
              structure.element(((0,), (1,))))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.identity(2),
        unit_markers=("1", "1"),
        y_values=values,
    )
    kinds = {v.kind for v in validate(me)}
    assert "misplaced_value" in kinds


def test_induced_x_values():
    me = simple_extension([[1, 0], [0, 1]])
    vals = induced_x_values(me)
    assert vals == me.y_values

    me2 = simple_extension([[2, 0], [0, 3]])
    vals2 = induced_x_values(me2)
    assert vals2[0] == me2.y_values[0].scale(2)
    assert vals2[1] == me2.y_values[1].scale(3)


def test_induced_x_values_rationally_independent():
    me = simple_extension([[2, 1], [1, 1]])
    vals = induced_x_values(me)
    flat = [v.flat() for v in vals]
    # transition determinant 2*1 - 1*1 = 1, so values stay independent
    assert flat[0][0] * flat[1][1] - flat[0][1] * flat[1][0] != 0


def test_adjoint_relations_identity():
    me = simple_extension([[1, 0], [0, 1]])
    rel = adjoint_relations(me)
    assert rel.e == 1
    assert rel.B.entries == ExactMatrix.identity(2).entries


def test_adjoint_relations_diag():
    me = simple_extension([[2, 0], [0, 3]])
    rel = adjoint_relations(me)
    assert rel.e == 6
    assert rel.B.entries == ExactMatrix.diagonal((3, 2)).entries


def test_adjoint_identity_on_random_t_submatrices():
    # adjoint_relations checks no product: adjugate has checked
    # adj * A_T = det * I, so B = sign(det) * adj gives B * A_T = e * I
    rng = random.Random(288)
    three = BlockStructure(r=2, t=(2, 1), s=(2, 1))
    signs = set()
    for _ in range(300):
        k = rng.choice((2, 3))
        rows = [[rng.randint(0, 4) for _ in range(k)] for _ in range(k)]
        if k == 2:
            me = simple_extension(rows)
        else:
            me = simple_extension(rows, blocks=three, y_vals=(
                (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        AT = me.t_submatrix()
        det = determinant(AT)
        if det == 0:
            continue
        rel = adjoint_relations(me)
        assert rel.e == abs(det)
        assert rel.B.matmul(AT).entries == \
            ExactMatrix.diagonal((rel.e,) * k).entries
        signs.add((k, det > 0))
    assert signs == {(2, True), (2, False), (3, True), (3, False)}


def test_adjoint_relations_triangular():
    me = simple_extension([[1, 1], [0, 2]])
    rel = adjoint_relations(me)
    assert rel.e == 2
    assert rel.B.entries == ((2, -1), (0, 1))
    # exponent identity: B * A_T = e * I
    assert rel.B.matmul(me.t_submatrix()).entries == \
        ExactMatrix.diagonal((2, 2)).entries


def test_ssm_form_certificate():
    blocks = BlockStructure(r=2, t=(2, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    values = (
        structure.element(((1,), (0,))),
        structure.element(((1,), (0,))),
        structure.element(((0,), (1,))),
    )
    good = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        unit_markers=("1", "1", "1"),
        y_values=values,
    )
    SSMForm(good)  # no raise

    bad = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        unit_markers=("1", "1", "1"),
        y_values=values,
    )
    assert validate(bad) == []  # Theorem-4.8 shape is fine
    with pytest.raises(InvalidExtension):
        SSMForm(bad)


def test_nonpositive_value_rejected():
    blocks = BlockStructure(r=1, t=(1,), s=(1,))
    structure = GroupStructure((Block(),))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[1]]),
        unit_markers=("1",),
        y_values=(structure.element(((-1,),)),),
    )
    with pytest.raises(NonPositiveValue):
        induced_x_values(me)
