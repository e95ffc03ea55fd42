"""Typed refusals of invalid input that no other test reaches.

Each test pins one refusal of invalid input: its error type and, where the
library gives one, its message.  They hold whatever the internal layout of
blocks and group elements is.
"""

from fractions import Fraction

import pytest

from gradedval.affine_monoids import (
    AffineMonoid,
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from gradedval.errors import (
    AmbientMismatch,
    DependentGenerators,
    DimensionMismatch,
    InvalidExtension,
    NotInGroup,
    NotTheorem48Form,
    ParseError,
    SingularBlock,
    SingularLattice,
)
from gradedval.exact_lattice import (
    ExactMatrix,
    determinant,
    in_column_lattice,
    lattice_index,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
    solve_rational,
    unimodular_inverse,
)
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
)
from gradedval.monomialization import TransformStep, replay
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    ValueGroup,
    generator_rows,
)
from gradedval.scenarios import Scenario, load_scenario, run_pipeline
from gradedval.value_semigroups import (
    ValueSemigroup,
    semigroup_difference,
    semigroup_membership,
)

ONE = GroupStructure((Block(),))
TWO = GroupStructure((Block(), Block()))


@pytest.mark.parametrize("r, t, s, message", [
    (0, (), (), "need r >= 1 with r block sizes and ranks"),
    (2, (1,), (1, 1), "need r >= 1 with r block sizes and ranks"),
    (1, (2,), (1, 1), "need r >= 1 with r block sizes and ranks"),
    (1, (2,), (0,), "each block needs 1 <= s_i <= t_i"),
    (2, (1, 2), (1, 3), "each block needs 1 <= s_i <= t_i"),
])
def test_block_structure_refuses_bad_sizes(r, t, s, message):
    with pytest.raises(InvalidExtension) as info:
        BlockStructure(r=r, t=t, s=s)
    assert str(info.value) == message


def test_block_structure_lookups_and_their_range():
    bs = BlockStructure(r=3, t=(2, 1, 3), s=(1, 1, 2))
    assert bs.n == 6
    assert [bs.block_of(i) for i in range(6)] == [0, 0, 1, 2, 2, 2]
    assert [bs.offset(b) for b in range(4)] == [0, 2, 3, 6]
    assert bs.t_indices() == (0, 2, 3, 4)
    assert [bs.is_t_index(i) for i in range(6)] == [
        True, False, True, True, True, False]
    for index in (-1, 6, 7):
        with pytest.raises(IndexError):
            bs.block_of(index)
        with pytest.raises(IndexError):
            bs.is_t_index(index)


def test_a_huge_block_is_refused_by_the_matrix_check_at_once():
    # n comes from the offsets alone; no table of n entries is built
    # before the exponent matrix, 2 x 2 here, is checked against it
    bs = BlockStructure(r=2, t=(10 ** 18, 1), s=(1, 1))
    assert bs.n == 10 ** 18 + 1 and bs.offset(1) == 10 ** 18
    with pytest.raises(InvalidExtension) as info:
        MonomialExtension(blocks=bs, A=ExactMatrix.from_rows([[1, 0], [0, 1]]),
                          unit_markers=("1", "1"),
                          y_values=_values(TWO, [(1, 0), (0, 1)]))
    assert str(info.value) == "exponent matrix must be n x n"


ROW = ExactMatrix.from_rows([[1, 2, 3]])
SQUARE = ExactMatrix.from_rows([[2, 0], [0, 3]])


@pytest.mark.parametrize("call, message", [
    (lambda: ROW.matmul(ROW), "1x3 times 1x3"),
    (lambda: ROW.apply((1, 2)), "vector length != column count"),
    (lambda: determinant(ROW), "determinant of non-square matrix"),
    (lambda: lattice_index(ROW), "lattice index needs a square matrix"),
    (lambda: quotient_invariants(ROW),
     "quotient invariants need a square matrix"),
    (lambda: in_column_lattice(smith_normal_form(SQUARE), (1, 2, 3)),
     "right-hand side length != row count"),
    (lambda: solve_integer(SQUARE, (1,)),
     "right-hand side length != row count"),
    (lambda: solve_rational(ROW, (1,)), "square system required"),
])
def test_exact_lattice_refuses_mismatched_shapes(call, message):
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


def test_unimodular_inverse_refuses_a_larger_determinant():
    with pytest.raises(SingularLattice) as info:
        unimodular_inverse(SQUARE)
    assert str(info.value) == "matrix is not unimodular"


@pytest.mark.parametrize("coords, message", [
    (((1,),), "coordinate blocks != structure blocks"),
    (((1,), (2,), (3,)), "coordinate blocks != structure blocks"),
    (((1, 2), (3,)), "component length != block rank"),
    (((1,), ()), "component length != block rank"),
])
def test_element_refuses_a_wrong_shape(coords, message):
    with pytest.raises(AmbientMismatch) as info:
        TWO.element(coords)
    assert str(info.value) == message


def test_element_keeps_blocks_and_fractions():
    mixed = GroupStructure((Block(quad=2), Block()))
    gamma = mixed.element(((1, "1/2"), (-3,)))
    assert gamma.coords == ((Fraction(1), Fraction(1, 2)), (Fraction(-3),))
    assert gamma.flat() == (1, Fraction(1, 2), -3)
    assert all(type(c) is Fraction for c in gamma.flat())
    assert mixed.from_flat(gamma.flat()) == gamma
    assert gamma.sign() == 1 and (-gamma).sign() == -1
    assert -gamma < gamma and gamma > -gamma and gamma >= gamma


def _values(structure, flats):
    return tuple(structure.element(((x,) for x in flat)) for flat in flats)


def _extension(A, markers=("1", "1"), values=None):
    return MonomialExtension(
        blocks=BlockStructure(r=1, t=(2,), s=(1,)),
        A=ExactMatrix.from_rows(A), unit_markers=markers,
        y_values=_values(ONE, [(1,), (1,)]) if values is None else values)


@pytest.mark.parametrize("kwargs, message", [
    ({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "exponent matrix must be n x n"),
    ({"A": [[1, 0], [0, 1]], "markers": ("1",)},
     "need one unit marker per row"),
    ({"A": [[1, 0], [0, 1]], "values": _values(ONE, [(1,)])},
     "need one value per y variable"),
    ({"A": [[1, 0], [0, 1]],
      "values": _values(ONE, [(1,)]) + _values(TWO, [(1, 0)])},
     "y-values in different ambient groups"),
    ({"A": [[1, 0], [0, 1]], "values": _values(TWO, [(1, 0), (1, 1)])},
     "ambient group rank must equal the block count"),
])
def test_extension_refuses_inconsistent_data(kwargs, message):
    with pytest.raises(InvalidExtension) as info:
        _extension(**kwargs)
    assert str(info.value) == message


def test_semigroups_refuse_foreign_and_outside_elements():
    group = ValueGroup(ONE, _values(ONE, [(1,)]))
    other = _values(TWO, [(1, 0)])[0]
    with pytest.raises(AmbientMismatch) as info:
        ValueSemigroup(ambient=group, generators=(other,))
    assert str(info.value) == "generator outside the ambient group"
    half = _values(ONE, [(Fraction(1, 2),)])[0]
    with pytest.raises(NotInGroup) as info:
        ValueSemigroup(ambient=group, generators=(half,))
    assert str(info.value) == "generator outside the ambient value group"
    S = ValueSemigroup(ambient=group, generators=_values(ONE, [(2,), (3,)]))
    with pytest.raises(AmbientMismatch) as info:
        semigroup_membership(other, S)
    assert str(info.value) == "query outside the ambient group"
    T = ValueSemigroup(ambient=ValueGroup(TWO, (other,)),
                       generators=(other,))
    with pytest.raises(AmbientMismatch) as info:
        semigroup_difference(S, T, 4)
    assert str(info.value) == "semigroups over different ambient groups"


def test_replay_refuses_a_target_that_is_not_a_t_index():
    # index 2 is the non-T variable of block 1, later than row 0's block
    me = MonomialExtension(
        blocks=BlockStructure(r=2, t=(1, 2), s=(1, 1)),
        A=ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        unit_markers=("1",) * 3,
        y_values=_values(TWO, [(1, 0), (0, 1), (0, 1)]))
    with pytest.raises(NotTheorem48Form) as info:
        replay(me, [TransformStep(kind="s", row=0, target=2)])
    assert str(info.value) == "target column 2 is not a T-index"


def test_pipeline_reports_an_invalid_extension_without_running_it():
    me = _extension([[1, -1], [0, 1]])
    report = run_pipeline(Scenario(
        name="bad", extensions=(("bad", me),), residue_degree=1,
        semigroup=None, records=(), expect={}))
    assert report == {"scenario": "bad", "ok": False, "cases": [{
        "case": "bad", "ok": False,
        "validation": [{
            "kind": "negative_exponent", "location": ["0", "1"],
            "message": "exponent a[0][1] = -1 is negative"}],
        "checks": [{"name": "valid_input", "passed": False}]}]}


PLANE = ((1, 0), (0, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: AffineMonoid(dim=2, generators=((1,),),
                          positivity_functional=(1, 1)),
     "generator of wrong dimension"),
    (lambda: AffineMonoid(dim=2, generators=PLANE,
                          positivity_functional=(1,)),
     "functional of wrong dimension"),
    (lambda: AffineMonoid(dim=2, generators=PLANE,
                          positivity_functional=(1, 1)).contains((1,)),
     "query of wrong dimension"),
    (lambda: parallelepiped_points(((1, 0), (0, 1, 2))),
     "need n vectors in Z^n"),
    (lambda: parallelepiped_points(((1, 0),)), "need n vectors in Z^n"),
])
def test_affine_monoids_refuse_a_wrong_dimension(call, message):
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


def test_decomposition_refuses_a_monoid_of_other_generators():
    basis = parallelepiped_points(((2, 1), (0, 3)))
    monoid = AffineMonoid(dim=2, generators=PLANE,
                          positivity_functional=(1, 1))
    with pytest.raises(DependentGenerators) as info:
        verify_disjoint_decomposition(basis, monoid, box_bound=3)
    assert str(info.value) == (
        "monoid must be generated by the parallelepiped vectors")


def test_value_groups_refuse_a_foreign_ambient():
    group = ValueGroup(ONE, _values(ONE, [(1,)]))
    other = ValueGroup(TWO, _values(TWO, [(1, 0)]))
    with pytest.raises(AmbientMismatch) as info:
        ValueGroup(ONE, other.generators)
    assert str(info.value) == "generator outside the ambient group"
    with pytest.raises(AmbientMismatch) as info:
        group.coordinates(other.generators[0])
    assert str(info.value) == "element outside the ambient group"
    with pytest.raises(AmbientMismatch) as info:
        generator_rows(group, other)
    assert str(info.value) == "groups over different ambient structures"


def test_strong_form_and_adjoint_relations_refuse_a_bad_extension():
    with pytest.raises(InvalidExtension) as info:
        SSMForm(_extension([[1, -1], [0, 1]]))
    assert str(info.value) == "exponent a[0][1] = -1 is negative"
    # T = {0}, so the T-submatrix is the 1 x 1 zero matrix
    with pytest.raises(SingularBlock) as info:
        adjoint_relations(_extension([[0, 0], [0, 1]]))
    assert str(info.value) == "T-submatrix is singular"


def test_random_section_refuses_e_max_below_one():
    # no extension has |det A| < 1, so the draws would never end
    with pytest.raises(ParseError) as info:
        load_scenario({"name": "r", "random": {"e_max": "0"}})
    assert str(info.value) == "random.e_max must be at least 1, not 0"
