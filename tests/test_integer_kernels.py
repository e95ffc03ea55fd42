"""Differential tests for the integer kernels behind coset systems.

ValueGroup.coordinates (integer back-substitution) is checked against a
rational Gauss-Jordan solve, in_column_lattice and solve_integer (one
Smith residue routine) against A x = b and the Hermite basis of the
columns,
Quotient against per-call coset_label, brute-force coset enumeration,
the inclusion matrix of small's own lattice basis and sympy's normal
forms, smith_normal_form against its defining properties
and sympy's diagonal, adjugate against sympy and the cofactor minors, the
adjugate-based verify_disjoint_decomposition against the brute-force
search it replaced, rref against sympy, and coset systems of random
extensions against the sampled hypothesis-A7 checks and against the
invariants and values they reuse, recomputed from scratch, their
character check against the integer character table, and semigroup
membership (a lookup in one box enumeration) against the block-by-block
search it replaced.  Monomialization traces of random extensions replay
to their final extension, in memory, step by step and from a trace file
through the CLI.
"""

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_affine_monoids import (  # noqa: E402
    brute_force_decomposition,
    parallelepiped_oracle,
    simplicial_monoid,
)
from test_exact_lattice import (  # noqa: E402
    check_rref_against_sympy,
    check_snf,
    cofactor_adjugate,
)
from test_graded_algebra import check_characters_against_table  # noqa: E402
from test_monomialization import (  # noqa: E402
    a7_oracle,
    compatible_extension,
    coset_system_oracle,
    replay_oracle,
)
from test_value_semigroups import search_membership_oracle  # noqa: E402

from gradedval.affine_monoids import (  # noqa: E402
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from gradedval.errors import SingularLattice  # noqa: E402
from gradedval.exact_lattice import (  # noqa: E402
    ExactMatrix,
    adjugate,
    determinant,
    hermite_row_basis,
    in_column_lattice,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
)
from gradedval.cli import main  # noqa: E402
from gradedval.monomialization import (  # noqa: E402
    coset_system,
    replay,
    strong_monomialize,
)
from gradedval.ordered_groups import (  # noqa: E402
    Block,
    GroupStructure,
    Quotient,
    ValueGroup,
    coset_label,
    generator_rows,
    quotient_invariant_factors,
    scaled_row,
    subgroup_index,
)
from gradedval.scenarios import random_extension_bounded  # noqa: E402
from gradedval.serialize import canonical_dumps, enc_trace  # noqa: E402
from gradedval.value_semigroups import (  # noqa: E402
    ValueSemigroup,
    semigroup_membership,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

STRUCTURES = (
    GroupStructure((Block(),)),
    GroupStructure((Block(), Block())),
    GroupStructure((Block(quad=5),)),
    GroupStructure((Block(quad=2), Block())),
)


def row_space_solve(rows, target):
    """Rational x with x * rows = target, or None.  rows: integer tuples.

    Gauss-Jordan elimination over Fraction on the transposed system; the
    reference for ValueGroup.coordinates.
    """
    if not rows:
        return () if all(t == 0 for t in target) else None
    m = len(target)
    k = len(rows)
    aug = [[Fraction(rows[j][c]) for j in range(k)] + [Fraction(target[c])]
           for c in range(m)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    x = [Fraction(0)] * k
    for row_idx, col in enumerate(pivots):
        x[col] = aug[row_idx][k]
    return tuple(x)


def coordinates_oracle(group, gamma):
    L, basis, _ = group._lattice
    x = row_space_solve(basis, tuple(c * L for c in gamma.flat()))
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


def basis_elements(group):
    """Group elements forming the lattice basis of a value group."""
    L, basis, _ = group._lattice
    return tuple(group.structure.from_row(row, L) for row in basis)


def combine(structure, coeffs, elements):
    out = structure.zero()
    for c, g in zip(coeffs, elements):
        out = out + g.scale(c)
    return out


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def group_and_element(draw):
    structure = draw(st.sampled_from(STRUCTURES))
    m = structure.rational_rank

    def element():
        flat = draw(st.lists(fractions, min_size=m, max_size=m))
        pos, coords = 0, []
        for block in structure.blocks:
            coords.append(flat[pos:pos + block.rational_rank])
            pos += block.rational_rank
        return structure.element(coords)

    gens = [element() for _ in range(draw(st.integers(0, 4)))]
    group = ValueGroup(structure, tuple(gens))
    if gens and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                               max_size=len(gens)))
        gamma = combine(structure, coeffs, gens)
    else:
        gamma = element()
    return group, gamma


@SETTINGS
@given(group_and_element())
def test_coordinates_match_rational_solve(data):
    group, gamma = data
    x = group.coordinates(gamma)
    assert x == coordinates_oracle(group, gamma)
    if x is not None:
        basis = basis_elements(group)
        assert combine(group.structure, x, basis) == gamma


@st.composite
def matrix_and_vector(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    A = ExactMatrix.from_rows(rows)
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        b = A.apply(tuple(x))
    else:
        b = tuple(draw(st.lists(st.integers(-9, 9), min_size=m,
                                max_size=m)))
    return A, b


@SETTINGS
@given(matrix_and_vector())
def test_residue_membership_matches_solve_integer(data):
    # both read one Smith residue routine, so the oracles are elsewhere: a
    # solution must solve A x = b, and b is in the column lattice exactly
    # when adding it leaves the canonical Hermite basis of the columns
    A, b = data
    x = solve_integer(A, b)
    if x is not None:
        assert A.apply(x) == b
    columns = [list(col) for col in zip(*A.entries)]
    member = hermite_row_basis(columns) == hermite_row_basis(
        columns + [list(b)])
    assert (x is not None) == member
    assert in_column_lattice(smith_normal_form(A), b) == member


nonzero_fractions = st.builds(
    Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 4))


@st.composite
def finite_quotient(draw):
    """big = <independent rationals>, small = M * big-basis.

    Every sublattice of finite index has an upper-triangular basis, so M
    is drawn triangular with a positive diagonal; one row operation varies
    the presentation without changing the lattice, and so do a zero
    generator and the sum of two generators, appended.
    """
    structure = draw(st.sampled_from(STRUCTURES))
    m = structure.rational_rank

    def triangular(diagonal, entries):
        return [[draw(diagonal) if j == i else
                 (draw(entries) if j > i else 0) for j in range(m)]
                for i in range(m)]

    big = ValueGroup(structure, tuple(
        structure.element(structure.split(row))
        for row in triangular(nonzero_fractions, fractions)))
    M = triangular(st.integers(1, 4), st.integers(-3, 3))
    index = 1
    for i in range(m):
        index *= M[i][i]
    if m == 2:
        k = draw(st.integers(-2, 2))
        M[1] = [a + k * b for a, b in zip(M[1], M[0])]
    small_gens = tuple(combine(structure, r, basis_elements(big)) for r in M)
    if draw(st.booleans()):
        small_gens += (structure.zero(), small_gens[0] + small_gens[-1])
    return big, ValueGroup(structure, small_gens), index


def inclusion_oracle(big, small):
    """The integer matrix of small's own lattice basis in big's lattice
    basis: the inclusion matrix Quotient was built from before it took
    the coordinates, and then the rows, of small's generators."""
    rows = [big.coordinates(el) for el in basis_elements(small)]
    assert None not in rows and len(rows) == big.rational_rank
    return ExactMatrix.from_rows(rows)


def reduce_through(hnf, v):
    """v reduced through an echelon basis into [0, pivot) at each pivot."""
    v = list(v)
    for row in hnf:
        p = next(j for j, x in enumerate(row) if x)
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def brute_force_classes(big, small, index):
    """Points of big over a coefficient box, grouped by difference in
    small.  The first two axes span [-1, index), past each pivot, so the
    reduction also meets positive quotients; a further axis i spans
    [-1, k_i), k_i the least k > 0 with k * b_i in small.  k_i bounds the
    pivot of the upper-triangular Hermite basis of small at i, so every
    coset has a representative in the box, at every rank."""
    basis = basis_elements(big)
    structure = big.structure
    spans = [range(-1, index) if i < 2 else
             range(-1, next(k for k in range(1, index + 1)
                            if small.contains(b.scale(k))))
             for i, b in enumerate(basis)]
    points = [combine(structure, c, basis)
              for c in itertools.product(*spans)]
    reps, classes = [], []
    for p in points:
        for k, r in enumerate(reps):
            if small.contains(p - r):
                classes.append(k)
                break
        else:
            classes.append(len(reps))
            reps.append(p)
    return points, classes, len(reps)


@settings(SETTINGS, max_examples=60)
@given(finite_quotient())
def test_quotient_labels_against_brute_force(data):
    big, small, index = data
    q = Quotient(big, generator_rows(big, small))
    assert q.index == index == subgroup_index(big, small)
    assert q.invariant_factors == quotient_invariant_factors(big, small)
    points, classes, count = brute_force_classes(big, small, index)
    assert count == index
    labels = [q.label(p) for p in points]
    for p, lbl in zip(points, labels):
        assert lbl == coset_label(p, big, small)
        assert small.contains(lbl - p)
        assert q.label(lbl) == lbl
    by_class = {}
    for k, lbl in zip(classes, labels):
        by_class.setdefault(k, set()).add(lbl.flat())
    assert all(len(v) == 1 for v in by_class.values())
    assert len({lbl.flat() for lbl in labels}) == index
    # against the inclusion matrix of small's lattice basis: the Hermite
    # rows of L * small have big-coordinates of its Hermite basis
    C = inclusion_oracle(big, small)
    hnf = hermite_row_basis(C.entries)
    assert hermite_row_basis(
        [big.row_coordinates(row) for row in q.hnf]) == hnf
    assert q.index == abs(determinant(C))
    snf = smith_normal_form(C.transpose())
    assert q.invariant_factors == tuple(
        d for d in snf.D.diagonal_entries() if d > 1)
    # a label is the value row reduced through q.hnf; the reduction of
    # big-coordinates, the label before, is an oracle for its coset
    L, basis, _ = big._lattice
    for p, lbl in zip(points, labels):
        assert scaled_row(lbl, L) == reduce_through(q.hnf, scaled_row(p, L))
        coords = reduce_through(hnf, big.coordinates(p))
        old = big.structure.from_row(
            [sum(c * b for c, b in zip(coords, col)) for col in zip(*basis)],
            L)
        assert small.contains(lbl - old)


@SETTINGS
@given(finite_quotient())
def test_quotient_against_sympy_smith_form(data):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    big, small, index = data
    q = Quotient(big, generator_rows(big, small))
    C = inclusion_oracle(big, small)
    D = sympy_snf(sympy.Matrix(C.entries), domain=sympy.ZZ)
    diag = [abs(int(D[i, i])) for i in range(min(D.shape))]
    assert tuple(d for d in diag if d > 1) == q.invariant_factors
    prod = 1
    for d in diag:
        prod *= d
    assert prod == q.index


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=1, max_size=n + 2)))
def test_hermite_basis_against_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    M = sympy.Matrix(rows)
    n = M.cols
    if M.rank() < n:
        return
    ours = hermite_row_basis([tuple(r) for r in rows])
    # sympy's column-style form, read with rows and columns reversed, is
    # the row-style echelon form used here, entry for entry
    theirs = hermite_normal_form(M.T[::-1, ::-1]).T[::-1, ::-1]
    assert ours == tuple(tuple(int(x) for x in theirs.row(i))
                         for i in range(n))
    # the same lattice: each basis lies in the other's row lattice
    structure = GroupStructure(tuple(Block() for _ in range(n)))

    def group(vectors):
        return ValueGroup(structure, tuple(
            structure.element(tuple((x,) for x in v)) for v in vectors))

    a = group(ours)
    b = group([[int(x) for x in theirs.row(i)] for i in range(n)])
    assert all(a.contains(g) for g in b.generators)
    assert all(b.contains(g) for g in a.generators)


def square(n_max, span):
    return st.integers(1, n_max).flatmap(lambda n: st.lists(
        st.lists(st.integers(-span, span), min_size=n, max_size=n),
        min_size=n, max_size=n))


@SETTINGS
@given(square(5, 9))
def test_adjugate_against_cofactors_and_sympy(rows):
    A = ExactMatrix.from_rows(rows)
    d = determinant(A)
    assume(d != 0)
    det, adj = adjugate(A)
    assert det == d
    assert adj.entries == cofactor_adjugate(A)
    sympy = pytest.importorskip("sympy")
    assert [list(r) for r in adj.entries] == \
        sympy.Matrix(rows).adjugate().tolist()


@SETTINGS
@given(square(6, 12), st.booleans())
def test_transform_free_diagonal_against_smith_form(rows, triangular):
    # the Smith diagonal that quotient_invariants takes one pivot at a
    # time gives smith_normal_form's D, and a singular A is refused
    if triangular:
        rows = [[x if j >= i else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    A = ExactMatrix.from_rows(rows)
    diag = smith_normal_form(A).D.diagonal_entries()
    if determinant(A):
        assert quotient_invariants(A) == tuple(d for d in diag if d > 1)
    else:
        assert 0 in diag
        with pytest.raises(SingularLattice,
                           match="^column lattice has infinite index$"):
            quotient_invariants(A)


@settings(SETTINGS, max_examples=80)
@given(square(3, 3), st.integers(1, 4))
def test_decomposition_against_brute_force(rows, box):
    vecs = tuple(tuple(r) for r in rows)
    d = determinant(ExactMatrix.from_rows(vecs))
    assume(d != 0 and abs(d) <= 30)
    pb = parallelepiped_points(vecs)
    M = simplicial_monoid(vecs)
    fast = verify_disjoint_decomposition(pb, M, box_bound=box)
    assert fast == brute_force_decomposition(pb, M, box)
    assert fast.ok


@SETTINGS
@given(square(4, 6))
def test_parallelepiped_walk_against_oracle(rows):
    d = determinant(ExactMatrix.from_rows(rows))
    assume(d != 0 and abs(d) <= 2000)
    pb = parallelepiped_points(rows)
    assert pb.points == parallelepiped_oracle(rows)
    assert pb.index == abs(d)


@st.composite
def rational_rows(draw):
    """Integer matrices up to 5 x 6, often rank-deficient."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@SETTINGS
@given(rational_rows())
def test_rref_against_sympy(rows):
    check_rref_against_sympy(rows)


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 5))
def test_a7_oracle_on_random_extensions(seed, r_max, t_max, g_max):
    me = random_extension_bounded(random.Random(seed), e_max=60, r_max=r_max,
                                  t_max=t_max, g_max=g_max)
    a7_oracle(coset_system(strong_monomialize(me).final))


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 5))
def test_coset_system_oracle_on_random_extensions(seed, r_max, t_max, g_max):
    me = random_extension_bounded(random.Random(seed), e_max=60, r_max=r_max,
                                  t_max=t_max, g_max=g_max)
    coset_system_oracle(coset_system(strong_monomialize(me).final))


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 5))
def test_characters_match_the_table_on_random_extensions(seed, r_max, t_max,
                                                          g_max):
    me = random_extension_bounded(random.Random(seed), e_max=60, r_max=r_max,
                                  t_max=t_max, g_max=g_max)
    assert check_characters_against_table(
        coset_system(strong_monomialize(me).final), seed)


@settings(SETTINGS, max_examples=40)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 5))
def test_replay_reproduces_random_traces(seed, r_max, t_max, g_max):
    me = random_extension_bounded(random.Random(seed), e_max=60, r_max=r_max,
                                  t_max=t_max, g_max=g_max)
    trace = strong_monomialize(me)
    assert replay(trace.initial, trace.steps) == trace.final.extension
    assert replay_oracle(trace.initial, trace.steps) == trace.final.extension
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        path.write_text(canonical_dumps(enc_trace(trace)))
        with contextlib.redirect_stdout(out):
            code = main(["pipeline", "--replay", str(path), "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["replay_matches"] is True


@st.composite
def theorem48_extension(draw):
    """A Theorem-4.8-shaped extension with one T-variable per block, T-row
    tails up to 2, non-T tails up to 8 and T-diagonal entries up to 9, so
    the lift often needs bursts of several equal substitutions."""
    r = draw(st.integers(2, 3))
    t = tuple(draw(st.integers(1, 2)) for _ in range(r))
    n = sum(t)
    offsets = [sum(t[:b]) for b in range(r)]
    block = [b for b in range(r) for _ in range(t[b])]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(1, 9)) if i in offsets else 1
        tail = 2 if i in offsets else 8
        for b in range(block[i] + 1, r):
            rows[i][offsets[b]] = draw(st.integers(0, tail))
    return compatible_extension(t, (1,) * r, rows)


@settings(SETTINGS, max_examples=80)
@given(theorem48_extension())
def test_replay_matches_step_fold_on_hypothesis_extensions(me):
    trace = strong_monomialize(me)
    assert replay(me, trace.steps) == replay_oracle(me, trace.steps) == \
        trace.final.extension


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_smith_normal_form_properties(rows):
    # U A V = D, U and V unimodular, D diagonal with d_1 | d_2 | ...
    snf = check_snf(ExactMatrix.from_rows(rows))
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    D = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    assert snf.D.diagonal_entries() == tuple(
        abs(int(D[i, i])) for i in range(min(D.shape)))


@st.composite
def semigroup_and_query(draw):
    """Generators with entries in [-2, 2], strictly positive; the query is
    either a combination of them or a nonnegative element with halves."""
    structure = draw(st.sampled_from(STRUCTURES))
    m = structure.rational_rank

    def flat(span):
        return draw(st.lists(st.integers(-span, span), min_size=m,
                             max_size=m))

    gens = [structure.from_row(flat(2), 1)
            for _ in range(draw(st.integers(1, 3)))]
    gens = tuple(g for g in gens if g.sign() > 0)
    assume(gens)
    S = ValueSemigroup(ambient=ValueGroup(structure, gens), generators=gens)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(gens),
                               max_size=len(gens)))
        gamma = combine(structure, coeffs, gens)
    else:
        gamma = structure.from_row(flat(4), 2)
        assume(gamma.sign() >= 0)
    return S, gamma


@SETTINGS
@given(semigroup_and_query())
def test_semigroup_membership_against_search(data):
    S, gamma = data
    assert semigroup_membership(gamma, S) == search_membership_oracle(gamma,
                                                                      S)
