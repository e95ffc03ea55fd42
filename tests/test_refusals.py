"""Typed refusals of invalid input that no other test reaches.

Each test pins one refusal of invalid input: its error type and, where the
library gives one, its message.  They hold whatever the internal layout of
blocks and group elements is.
"""

import dataclasses
from fractions import Fraction

import pytest

from gradedval import monomialization
from gradedval.affine_monoids import (
    AffineMonoid,
    labelled_parallelepiped,
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from gradedval.cli import bundled_scenario_bytes
from gradedval.errors import (
    AmbientMismatch,
    DependentGenerators,
    DimensionMismatch,
    InvalidExtension,
    MalformedStep,
    NonIntegerEntry,
    NotASubgroup,
    NotAlongValuation,
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
from gradedval.graded_algebra import GradedModule, fixed_by_all_characters
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
)
from gradedval.monomialization import (
    TransformStep,
    coset_system,
    replay,
    strong_monomialize,
)
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    Quotient,
    ValueGroup,
    coset_label,
    generator_rows,
    quotient_invariant_factors,
    subgroup_index,
)
from gradedval.ramification import ExtensionRecord, ostrowski_defect
from gradedval.scenarios import Scenario, load_scenario, run_pipeline
from gradedval.serialize import load_json
from gradedval.value_semigroups import (
    ValueSemigroup,
    enumerate_elements,
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


def test_a_negative_block_or_entry_index_is_refused():
    # a negative index must not wrap round to offset(r) = n or to the last
    # row, as Python's own indexing would; block_of refuses it too
    bs = BlockStructure(r=2, t=(1, 2), s=(1, 1))
    assert [bs.offset(b) for b in range(3)] == [0, 1, 3]
    for block in (-1, -3, -4, 3):
        with pytest.raises(IndexError):
            bs.offset(block)
    A = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert [A[i, j] for i in range(2) for j in range(2)] == [1, 2, 3, 4]
    for ij in ((-1, -2), (-1, 0), (0, -1), (-3, 0), (2, 0), (0, 2)):
        with pytest.raises(IndexError):
            A[ij]


def test_a_row_index_follows_the_entry_index_rule():
    # row() had no guard: row(True) returned row 1, row(-1) the last row
    # and row(1.0) ended in a bare TypeError
    A = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert [A.row(i) for i in range(2)] == [(1, 2), (3, 4)]
    for i in (-1, 2):
        with pytest.raises(IndexError):
            A.row(i)
    for i, message in ((True, "row index True is a bool, not an int"),
                       (1.0, "row index 1.0 is a float, not an int")):
        with pytest.raises(NonIntegerEntry) as info:
            A.row(i)
        assert str(info.value) == message


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


STEPPED = BlockStructure(r=2, t=(1, 2), s=(1, 1))
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
    # identity(-1) gave an empty matrix
    (lambda: ExactMatrix.identity(-1), "dimension -1 is negative"),
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
    assert mixed.element(mixed.split(gamma.flat())) == gamma
    assert gamma.sign() == 1 and (-gamma).sign() == -1
    assert -gamma < gamma and gamma > -gamma and gamma >= gamma


def test_rational_entry_points_take_ints_fractions_and_strings():
    # the one check that refuses a float or a bool keeps every exact form
    half = Fraction(1, 2)
    assert ONE.element(((half,),)) == ONE.element((("1/2",),)) \
        == ONE.element(((1,),)).scale("1/2") == ONE.element(((2,),)).scale(
            Fraction(1, 4))
    assert solve_rational(DIAG, (1, "3")) == solve_rational(
        DIAG, (Fraction(1), 3))
    S = _semigroup()
    assert enumerate_elements(S, 2) == enumerate_elements(S, "2") \
        == enumerate_elements(S, Fraction(2))
    assert AffineMonoid(dim=2, generators=PLANE,
                        positivity_functional=(1, "1/2")) \
        .positivity_functional == (1, half)


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
    # markers went through str(): (1, True) ran as ("1", "True"), so the
    # int 1 became the trivial unit, and None became "None"
    ({"A": [[1, 0], [0, 1]], "markers": (1, "1")},
     "unit marker must be a string, not 1"),
    ({"A": [[1, 0], [0, 1]], "markers": ("1", True)},
     "unit marker must be a string, not True"),
    ({"A": [[1, 0], [0, 1]], "markers": (None, "1")},
     "unit marker must be a string, not None"),
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


def _two_block_identity(flats):
    """A = I with blocks t = (1, 2), s = (1, 1): 0 and 1 are the T-indices
    of blocks 0 and 1, and 2 is the non-T variable of block 1."""
    return MonomialExtension(
        blocks=BlockStructure(r=2, t=(1, 2), s=(1, 1)),
        A=ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        unit_markers=("1",) * 3, y_values=_values(TWO, flats))


def test_replay_refuses_a_target_that_is_not_a_t_index():
    # index 2 is the non-T variable of block 1, later than row 0's block
    me = _two_block_identity([(1, 0), (0, 1), (0, 1)])
    with pytest.raises(NotTheorem48Form) as info:
        replay(me, [TransformStep(kind="s", row=0, target=2)])
    assert str(info.value) == "target column 2 is not a T-index"


@pytest.mark.parametrize("bad, error, message", [
    (TransformStep(kind="s", row=0, target=2), NotTheorem48Form,
     "target column 2 is not a T-index"),
    (TransformStep(kind="s", row=1, target=0), NotAlongValuation,
     "target column 0 must lie in a strictly later block than 1"),
])
def test_replay_refuses_a_bad_target_before_any_step_is_applied(
        monkeypatch, bad, error, message):
    # the first step is valid; the second was refused only when the
    # rewrite reached it, after the first had been applied
    applied = []
    monkeypatch.setattr(monomialization._Rewrite, "apply",
                        lambda self, step, reps: applied.append(step))
    me = _two_block_identity([(1, 0), (0, 1), (0, 1)])
    with pytest.raises(error) as info:
        replay(me, [TransformStep(kind="s", row=0, target=1), bad])
    assert str(info.value) == message
    assert applied == []


def test_replay_reports_a_bad_target_before_a_positivity_fault():
    # replay takes its initial extension as given: nu(y_1) sits at level
    # 0, so the first step leaves nu(y'_0) = 0.  That refusal depends on
    # the rewrite state; the later step's bad target does not, so it is
    # the one reported (both exit 1 in the CLI)
    me = _two_block_identity([(1, 0), (1, 0), (0, 1)])
    first = TransformStep(kind="s", row=0, target=1)
    with pytest.raises(NotAlongValuation) as info:
        replay(me, [first])
    assert str(info.value) == "value of y'_0 would not be strictly positive"
    with pytest.raises(NotTheorem48Form) as info:
        replay(me, [first, TransformStep(kind="s", row=0, target=2)])
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


@pytest.mark.parametrize("call, message", [
    (lambda: _values(ONE, [(1,)])[0] + 1,
     "elements of different ambient groups"),
    (lambda: _values(ONE, [(1,)])[0] < 1,
     "elements of different ambient groups"),
    (lambda: ValueGroup(ONE, (1,)), "generator outside the ambient group"),
    (lambda: ValueGroup(ONE, _values(ONE, [(1,)])).coordinates(1),
     "element outside the ambient group"),
    (lambda: ValueSemigroup(ambient=ValueGroup(ONE, _values(ONE, [(1,)])),
                            generators=(1,)),
     "generator outside the ambient group"),
])
def test_a_value_that_is_no_group_element_is_refused(call, message):
    # each read .structure off the int and ended in a bare AttributeError
    with pytest.raises(AmbientMismatch) as info:
        call()
    assert str(info.value) == message


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


def test_quotient_refuses_a_row_outside_big():
    # big = 2Z with L = 1, so the row (1,) of 1 lies outside it
    even = ValueGroup(ONE, _values(ONE, [(2,)]))
    with pytest.raises(NotASubgroup) as info:
        Quotient(even, [(1,)])
    assert str(info.value) == "small group outside big group"
    assert Quotient(even, [(4,)]).index == 2


@pytest.mark.parametrize("small", [
    # (1/3, 0): big's L = 1 does not clear it, so generator_rows refuses
    [(Fraction(1, 3), 0), (0, 1)],
    # (1, 0) is an integer row outside big, and small has rank 1 < 2:
    # Quotient refuses the row before it tests the rank
    [(1, 0)],
], ids=["denominator", "lower_rank_row"])
@pytest.mark.parametrize("call", [
    subgroup_index,
    quotient_invariant_factors,
    lambda big, small: coset_label(big.generators[0], big, small),
], ids=["subgroup_index", "quotient_invariant_factors", "coset_label"])
def test_small_outside_big_is_refused_whatever_its_rank(call, small):
    big = ValueGroup(TWO, _values(TWO, [(2, 0), (0, 1)]))
    with pytest.raises(NotASubgroup) as info:
        call(big, ValueGroup(TWO, _values(TWO, small)))
    assert str(info.value) == "small group outside big group"


DIAG = ExactMatrix.diagonal((2, 1))


def _diag23_system():
    scenario = load_scenario(load_json(bundled_scenario_bytes("diag23.json")))
    return coset_system(strong_monomialize(scenario.extensions[0][1]).final)


def _diag23_module():
    return GradedModule(system=_diag23_system(), residue_degree=1)


def _semigroup():
    gens = _values(ONE, [(1,), ("5/2",)])
    return ValueSemigroup(ValueGroup(ONE, gens), gens)


def _decompose(box_bound):
    basis = parallelepiped_points(((2, 1), (0, 3)))
    monoid = AffineMonoid(dim=2, generators=basis.vectors,
                          positivity_functional=(1, 1))
    return verify_disjoint_decomposition(basis, monoid, box_bound)


@pytest.mark.parametrize("call, message", [
    (lambda: solve_integer(DIAG, (2.9, 1)),
     "right-hand side entry 2.9 is a float, not an int"),
    (lambda: in_column_lattice(smith_normal_form(DIAG), (0.5, 0)),
     "right-hand side entry 0.5 is a float, not an int"),
    (lambda: in_column_lattice(smith_normal_form(DIAG), (Fraction(2), 0)),
     "right-hand side entry Fraction(2, 1) is a Fraction, not an int"),
    (lambda: parallelepiped_points([(2.5, 0), (0, 1)]),
     "vector entry 2.5 is a float, not an int"),
    (lambda: labelled_parallelepiped([(2, 0), (0, True)], (), tuple),
     "vector entry True is a bool, not an int"),
    (lambda: AffineMonoid(dim=2, generators=((1.5, 0), (0, 1)),
                          positivity_functional=(1, 1)),
     "generator entry 1.5 is a float, not an int"),
    (lambda: AffineMonoid(dim=2, generators=PLANE,
                          positivity_functional=(1, 1)).contains((0.5, 0.5)),
     "query entry 0.5 is a float, not an int"),
    (lambda: Block(quad=2.5), "quad 2.5 is a float, not an int"),
    (lambda: Block(quad="2"), "quad '2' is a str, not an int"),
    (lambda: BlockStructure(r=1.0, t=(2,), s=(1,)),
     "block count 1.0 is a float, not an int"),
    (lambda: BlockStructure(r=1, t=(2.5,), s=(1,)),
     "block size 2.5 is a float, not an int"),
    (lambda: BlockStructure(r=1, t=(2,), s=(1.0,)),
     "block rank 1.0 is a float, not an int"),
    (lambda: GradedModule(system=_diag23_system(), residue_degree=2.5),
     "residue degree 2.5 is a float, not an int"),
    (lambda: GradedModule(system=_diag23_system(), residue_degree=True),
     "residue degree True is a bool, not an int"),
    # sigma went unchecked: (2.0, 3.0) was fixed by all characters on
    # diag23 and (True, 0) was read as (1, 0); is_sigma_trivial refused both
    (lambda: fixed_by_all_characters(_diag23_module(), (2.0, 3.0)),
     "sigma entry 2.0 is a float, not an int"),
    (lambda: fixed_by_all_characters(_diag23_module(), (True, 0)),
     "sigma entry True is a bool, not an int"),
    (lambda: _decompose(2.5), "box bound 2.5 is a float, not an int"),
    (lambda: _decompose(3.0), "box bound 3.0 is a float, not an int"),
    (lambda: _decompose(True), "box bound True is a bool, not an int"),
    (lambda: ostrowski_defect(4.0, 2, 2, 0),
     "degree identity entry 4.0 is a float, not an int"),
    (lambda: ostrowski_defect(8, 2, 2, 2.5),
     "degree identity entry 2.5 is a float, not an int"),
    (lambda: ExtensionRecord(N=4.0, e=2, f=2, p=0),
     "degree identity entry 4.0 is a float, not an int"),
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, delta=0.0),
     "defect 0.0 is a float, not an int"),
    # d and g went through Fraction(): 0.5 / 0.25 was accepted as r = 2,
    # "3" and True were read as 3 and 1, and 0.3 / 0.1 was refused with
    # the ratio of the floats' binary expansions
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, d=0.5, g=0.25),
     "d 0.5 is a float, not an int"),
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, d="3", g=1),
     "d '3' is a str, not an int"),
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, d=True, g=1),
     "d True is a bool, not an int"),
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, d=0.3, g=0.1),
     "d 0.3 is a float, not an int"),
    (lambda: ExtensionRecord(N=4, e=2, f=2, p=0, d=3, g=0.1),
     "g 0.1 is a float, not an int"),
    # a rational entry went through Fraction(): 0.1 was read bit by bit
    # as 3602879701896397/36028797018963968 and True as 1, and
    # solve_rational ended in a bare TypeError on a float
    (lambda: ONE.element(((0.1,),)),
     "coordinate 0.1 is a float, not an int, Fraction or str"),
    (lambda: TWO.element(((1,), (True,))),
     "coordinate True is a bool, not an int, Fraction or str"),
    (lambda: ONE.element(((1,),)).scale(0.5),
     "scale factor 0.5 is a float, not an int, Fraction or str"),
    (lambda: enumerate_elements(_semigroup(), 0.1),
     "bound 0.1 is a float, not an int, Fraction or str"),
    (lambda: semigroup_difference(_semigroup(), _semigroup(), 2.5),
     "bound 2.5 is a float, not an int, Fraction or str"),
    (lambda: AffineMonoid(dim=2, generators=PLANE,
                          positivity_functional=(0.1, 0.2)),
     "functional entry 0.1 is a float, not an int, Fraction or str"),
    (lambda: solve_rational(DIAG, (0.5, 1)),
     "right-hand side entry 0.5 is a float, not an int, Fraction or str"),
    (lambda: solve_rational(DIAG, (True, 1)),
     "right-hand side entry True is a bool, not an int, Fraction or str"),
    # a str went to Fraction() unchecked: "abc" raised a bare ValueError
    # and "1/0" a ZeroDivisionError
    (lambda: ONE.element((("abc",),)),
     "coordinate 'abc' is a str that is not a rational"),
    (lambda: ONE.element((("1/0",),)),
     "coordinate '1/0' is a str that is not a rational"),
    (lambda: ONE.element(((1,),)).scale("abc"),
     "scale factor 'abc' is a str that is not a rational"),
    (lambda: ONE.element(((1,),)).scale("1/0"),
     "scale factor '1/0' is a str that is not a rational"),
    (lambda: solve_rational(DIAG, ("abc", 1)),
     "right-hand side entry 'abc' is a str that is not a rational"),
    (lambda: solve_rational(DIAG, (1, "1/0")),
     "right-hand side entry '1/0' is a str that is not a rational"),
    # scale went unchecked: 2.0 passed scale % L and ended in a bare
    # TypeError from range()
    (lambda: enumerate_elements(_semigroup(), 2, scale=2.0),
     "scale 2.0 is a float, not an int"),
    # a dimension went unchecked: identity(True) gave the 1 x 1 identity
    # and 2.0 or "2" a bare TypeError; AffineMonoid kept dim True or 1.0
    # as given, and dim "1" raised DimensionMismatch
    (lambda: ExactMatrix.identity(True),
     "dimension True is a bool, not an int"),
    (lambda: ExactMatrix.identity(2.0),
     "dimension 2.0 is a float, not an int"),
    (lambda: ExactMatrix.identity("2"), "dimension '2' is a str, not an int"),
    (lambda: AffineMonoid(dim=True, generators=((1,),),
                          positivity_functional=(1,)),
     "dimension True is a bool, not an int"),
    (lambda: AffineMonoid(dim=1.0, generators=((1,),),
                          positivity_functional=(1,)),
     "dimension 1.0 is a float, not an int"),
    (lambda: AffineMonoid(dim="1", generators=((1,),),
                          positivity_functional=(1,)),
     "dimension '1' is a str, not an int"),
    # an index went unchecked: block_of(True) and is_t_index(True) read
    # True as index 1, block_of(1.0) and offset(1.0) ended in a bare
    # TypeError, and [0, True] returned column 1
    (lambda: STEPPED.block_of(True), "index True is a bool, not an int"),
    (lambda: STEPPED.is_t_index(True), "index True is a bool, not an int"),
    (lambda: STEPPED.block_of(1.0), "index 1.0 is a float, not an int"),
    (lambda: STEPPED.offset(1.0), "block 1.0 is a float, not an int"),
    (lambda: STEPPED.offset(True), "block True is a bool, not an int"),
    (lambda: SQUARE[0, True], "column index True is a bool, not an int"),
    (lambda: SQUARE[1.0, 0], "row index 1.0 is a float, not an int"),
    # from_row stored L = True as given
    (lambda: ONE.from_row([1], True), "denominator True is a bool, not an int"),
])
def test_library_entry_points_refuse_non_integers(call, message):
    # each used to truncate through int(): (2.9, 1) solved as (2, 1),
    # (0.5, 0) was in the lattice, 2.5 walked as 2 and quad 2.5 gave
    # sqrt(2); a block count of 1.0 was kept as a float.  A residue degree
    # of 2.5 gave rank 5.0 and then a bare TypeError, and True counted as
    # 1; box bound 2.5 or 3.0 raised a bare TypeError; N = 4.0 gave defect
    # 0, delta = 0.0 was accepted, and p = 2.5 raised TypeError from pow
    with pytest.raises(NonIntegerEntry) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("scale", [0, -2, 3])
def test_enumeration_refuses_a_scale_that_is_no_positive_multiple(scale):
    # 0 raised ZeroDivisionError, and -2 passed scale % L and ran with a
    # negative denominator; L = 2 here, the denominator of 5/2
    assert enumerate_elements(_semigroup(), 3, scale=4) == \
        ((0,), (4,), (8,), (10,), (12,))
    with pytest.raises(ValueError) as info:
        enumerate_elements(_semigroup(), 2, scale=scale)
    assert str(info.value) == f"scale {scale} does not clear denominator 2"


@pytest.mark.parametrize("L", [-2, 0])
def test_from_row_refuses_a_denominator_below_one(L):
    # nothing was checked: from_row([2], -2) gave flat() (-1,) with sign
    # +1, and L = 0 ended in ZeroDivisionError at flat()
    with pytest.raises(ValueError) as info:
        ONE.from_row([2], L)
    assert str(info.value) == f"denominator {L} is not positive"
    assert ONE.from_row([2], 4) == ONE.element(((Fraction(1, 2),),))


def _rank2_h2_trace():
    scenario = load_scenario(load_json(bundled_scenario_bytes("rank2_h2.json")))
    return strong_monomialize(scenario.extensions[0][1])


def test_replay_refuses_bool_row_indices():
    # a bool passed the isinstance(i, int) check: row=True on all three
    # steps replayed to the same final form as row 1
    trace = _rank2_h2_trace()
    s, r, rescale = trace.steps
    (_, exp), = r.exponents
    for bad, message in [
            ([dataclasses.replace(step, row=True) for step in trace.steps],
             "'s' step names row True, not an int in [0, 3)"),
            ([dataclasses.replace(s, target=True), r, rescale],
             "'s' step names row True, not an int in [0, 3)"),
            ([s, dataclasses.replace(r, exponents=((True, exp),)), rescale],
             "'r' step names row True, not an int in [0, 3)"),
            ([s, r, dataclasses.replace(rescale, row=False)],
             "'rescale' step names row False, not an int in [0, 3)")]:
        with pytest.raises(MalformedStep) as info:
            replay(trace.initial, bad)
        assert str(info.value) == message


def test_replay_refuses_blocks_that_contradict_the_step():
    # used to be ignored: an "s" step with blocks [9] replayed, and
    # `pipeline --replay` reported a match
    trace = _rank2_h2_trace()
    s, r, rescale = trace.steps
    assert (s.kind, s.row, s.target, s.blocks) == ("s", 1, 2, (1, 2, 2, 1))
    for bad, message in [
            (dataclasses.replace(s, blocks=(9,)),
             "'s' step of row 1 and target 2 has blocks [9], "
             "not [1, 2, 2, 1]"),
            (dataclasses.replace(s, blocks=(1, 2, 2, 2)),
             "'s' step of row 1 and target 2 has blocks [1, 2, 2, 2], "
             "not [1, 2, 2, 1]"),
            (dataclasses.replace(r, blocks=(1, 2, 2, 1)),
             "'r' step has blocks"),
            (dataclasses.replace(rescale, blocks=()),
             "'rescale' step has blocks")]:
        steps = [bad if step.kind == bad.kind else step
                 for step in trace.steps]
        with pytest.raises(MalformedStep) as info:
            replay(trace.initial, steps)
        assert str(info.value) == message
    # blocks may be left out
    plain = [dataclasses.replace(step, blocks=None) for step in trace.steps]
    assert replay(trace.initial, plain) == trace.final.extension
