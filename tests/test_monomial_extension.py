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
    Violation,
    adjoint_relations,
    induced_x_values,
    validate,
)
from gradedval.ordered_groups import Block, GroupStructure, isolated_level
from test_exact_lattice import rref


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


def fraction_violations(me):
    """The shape check as it was decided on Fractions: exponents read one
    by one, the rank of the T-values by rref of their flat coordinates,
    each value's sign and isolated level on its GroupElement."""
    bs = me.blocks
    n = bs.n
    out = []
    for i in range(n):
        bi = bs.block_of(i)
        i_is_t = bs.is_t_index(i)
        for j in range(n):
            a = me.A[i, j]
            if a == 0:
                continue
            if a < 0:
                out.append(Violation(
                    "negative_exponent", (i, j),
                    f"exponent a[{i}][{j}] = {a} is negative"))
                continue
            if bs.is_t_index(j):
                bj = bs.block_of(j)
                ok = bj >= bi if i_is_t else (bj > bi or j == i)
            else:
                ok = j == i and a == 1
            if not ok:
                out.append(Violation(
                    "zero_pattern", (i, j),
                    f"exponent a[{i}][{j}] = {a} breaks the block "
                    f"pattern"))
        if not i_is_t and me.A[i, i] != 1:
            out.append(Violation(
                "zero_pattern", (i, i),
                f"non-T row {i} must carry its own variable with "
                f"exponent 1"))
    for b in range(bs.r):
        if determinant(me.g_block(b)) == 0:
            out.append(Violation(
                "singular_block", (b,),
                f"diagonal exponent block of block {b} is singular"))
    tlist = bs.t_indices()
    vecs = [me.y_values[j].flat() for j in tlist]
    if len(rref(vecs)[1]) != len(tlist):
        out.append(Violation(
            "dependent_values", tuple(tlist),
            "T-indexed y-values are rationally dependent"))
    for j, v in enumerate(me.y_values):
        if v.sign() <= 0:
            out.append(Violation(
                "nonpositive_value", (j,),
                f"value of y_{j} is not strictly positive"))
        elif isolated_level(v) != bs.block_of(j):
            out.append(Violation(
                "misplaced_value", (j,),
                f"value of y_{j} lives at isolated level "
                f"{isolated_level(v)}, expected {bs.block_of(j)}"))
    return out


def random_valued_extension(rng):
    """A valid extension over rank-1, sqrt(2) and sqrt(3) blocks.

    Block b has t_b <= 3 variables and s_b T-variables, at most its
    rational rank; A is the
    identity with exponents 0..2 on the T-columns of later blocks and on
    the block's own T-columns from its T-rows.  Every value is positive
    at its own level: a random nonzero component of denominator up to 4
    in its own block, with the sign made positive, and random components
    in later blocks.  The values are drawn again while fraction_violations
    finds a violation, which only dependent T-values give."""
    r = rng.randint(1, 3)
    structure = GroupStructure(tuple(
        Block(quad=rng.choice((None, 2, 3))) for _ in range(r)))
    t = tuple(rng.randint(1, 3) for _ in range(r))
    s = tuple(rng.randint(1, min(ti, block.rational_rank))
              for ti, block in zip(t, structure.blocks))
    blocks = BlockStructure(r=r, t=t, s=s)

    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def value(level):
        while True:
            comps = [tuple(0 for _ in range(block.rational_rank))
                     if c < level else
                     tuple(q() for _ in range(block.rational_rank))
                     for c, block in enumerate(structure.blocks)]
            v = structure.element(comps)
            if v.sign() < 0:
                v = -v
            if isolated_level(v) == level:
                return v

    tlist = blocks.t_indices()
    rows = [[int(i == j) for j in range(blocks.n)] for i in range(blocks.n)]
    for i in range(blocks.n):
        bi = blocks.block_of(i)
        for j in tlist:
            bj = blocks.block_of(j)
            if bj > bi or (bj == bi and blocks.is_t_index(i) and j > i):
                rows[i][j] = rng.randint(0, 2)
    while True:
        values = tuple(value(blocks.block_of(j)) for j in range(blocks.n))
        me = MonomialExtension(
            blocks=blocks, A=ExactMatrix.from_rows(rows),
            unit_markers=("1",) * blocks.n, y_values=values)
        if not fraction_violations(me):
            return me


def mutated(rng, me):
    """me with one value or exponent spoilt: a value negated or zeroed, a
    value moved to an earlier or a later level, a T-value replaced by a
    combination of the others, or an exponent set to -1 or 2."""
    values = list(me.y_values)
    rows = [list(row) for row in me.A.entries]
    structure = me.structure
    j = rng.randrange(len(values))
    kind = rng.choice(("negate", "zero", "earlier", "later", "dependent",
                       "exponent"))
    comps = [list(c) for c in values[j].coords]
    level = me.blocks.block_of(j)
    tlist = me.blocks.t_indices()
    if kind == "negate":
        values[j] = -values[j]
    elif kind == "zero":
        values[j] = structure.zero()
    elif kind == "earlier" and level > 0:
        comps[rng.randrange(level)][0] = Fraction(rng.randint(1, 3), 2)
        values[j] = structure.element(comps)
    elif kind == "later":
        comps[level] = [0] * len(comps[level])
        values[j] = structure.element(comps)
    elif kind == "dependent" and len(tlist) > 1:
        a, b = rng.sample(tlist, 2)
        values[a] = values[b].scale(Fraction(rng.randint(1, 3), 2))
    else:
        rows[rng.randrange(len(rows))][j] = rng.choice((-1, 2))
    return MonomialExtension(
        blocks=me.blocks, A=ExactMatrix.from_rows(rows),
        unit_markers=me.unit_markers, y_values=tuple(values))


def test_integer_shape_check_matches_fraction_oracle():
    # the violations decided on integer rows against the Fractions: the
    # same list, in the same order, with the same messages, on valid
    # extensions over rational, sqrt(2) and sqrt(3) blocks and on copies
    # with one value or exponent spoilt
    rng = random.Random(1729)
    kinds, quads, denominators = set(), set(), set()
    for _ in range(400):
        me = random_valued_extension(rng)
        assert validate(me) == fraction_violations(me) == []
        bad = mutated(rng, me)
        problems = validate(bad)
        assert problems == fraction_violations(bad)
        kinds |= {v.kind for v in problems}
        quads |= {b.quad for b in me.structure.blocks}
        denominators.add(bad._value_rows[0] > 1)
    assert {"nonpositive_value", "misplaced_value", "dependent_values",
            "negative_exponent", "zero_pattern"} <= kinds
    assert quads == {None, 2, 3} and denominators == {True, False}
