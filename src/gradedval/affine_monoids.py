"""Finitely generated pointed submonoids of Z^n.

Fundamental-parallelepiped generator sets and the disjoint coset
decomposition of the saturation.  Pointedness is certified at construction
by a strictly positive linear functional, which makes exact membership
decidable by bounded search.  For n independent generators the
parallelepiped points and the decomposition check use exact integer cone
coordinates from one adjugate per basis instead, and both take them one
row of C at a time over whole columns.
labelled_parallelepiped is the one body of the parallelepiped walk, and
parallelepiped_points is that walk with no labels.  It first splits off
every unit coordinate, so its adjugate, Hermite box and columns are those
of the rest (for a strong monomial form, of the T-block).  It builds C x
and x M over every point x of that box as one integer list per row of C
and per column of M (_box_column), takes the floors and the points from
those lists, and labels every point by one call on the columns of x M; a
box of fewer than _COLUMN_MIN_POINTS points is walked one point at a
time instead, which costs less there.
The decomposition check computes C x of the listed points itself, one
row of C at a time over the transposed points, settles a well-formed
point list from those residues, and only counts the cone, one line of
the last coordinate at a time, with the bounds of all lines taken one
row of C at a time, by the same _box_column; it reports any other list's
points that lie outside the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product, repeat
from operator import add, floordiv, ge, itemgetter, mul, sub

from .errors import (
    DependentGenerators,
    DimensionMismatch,
    EnumerationOverflow,
    InconsistentParallelepiped,
    NotPointed,
    SingularLattice,
)
from .exact_lattice import (
    ExactMatrix,
    _check_ints,
    _check_rationals,
    abs_adjugate,
    adjugate,
    hermite_row_basis,
)

# most nodes one membership search, or box points one decomposition, visits
_SEARCH_BUDGET = 100_000
# most points one parallelepiped may hold; a pipeline case costs about
# 10 us and 700 resident bytes per point (tools/points_scaling.py), so a
# full budget takes seconds and hundreds of MB, not hours
_POINT_BUDGET = 1_000_000
# fewest points a parallelepiped takes in whole columns; below it the box
# is walked one point at a time.  The two walks cost the same near 9 to 12
# points (best of 150 alternating passes over the benchmark workloads'
# walks, in one process, on a 2-core container)
_COLUMN_MIN_POINTS = 10


@dataclass(frozen=True)
class AffineMonoid:
    """Monoid generated by integer vectors, with pointedness certificate."""

    dim: int
    generators: tuple
    positivity_functional: tuple

    def __post_init__(self):
        _check_ints((self.dim,), "dimension")
        gens = []
        seen = set()
        for g in self.generators:
            g = _check_ints(g, "generator entry")
            if len(g) != self.dim:
                raise DimensionMismatch("generator of wrong dimension")
            if g not in seen:
                seen.add(g)
                gens.append(g)
        phi = tuple(map(Fraction, _check_rationals(
            self.positivity_functional, "functional entry")))
        if len(phi) != self.dim:
            raise DimensionMismatch("functional of wrong dimension")
        # L * phi is integral for L the lcm of the denominators, and has
        # the signs of phi on Z^n
        L = math.lcm(*(x.denominator for x in phi))
        scaled = tuple(x.numerator * (L // x.denominator) for x in phi)
        for g in gens:
            if _dot(scaled, g) <= 0:
                raise NotPointed(
                    f"functional not strictly positive on generator {g}")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "positivity_functional", phi)

    def contains(self, v):
        """Exact membership: v a nonnegative integer combination of gens.

        Bounded search over the coefficients; raises EnumerationOverflow
        when the search would visit more than _SEARCH_BUDGET nodes.
        """
        v = _check_ints(v, "query entry")
        if len(v) != self.dim:
            raise DimensionMismatch("query of wrong dimension")
        return _member(v, self.generators, self.positivity_functional,
                       [_SEARCH_BUDGET])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _member(v, gens, phi, budget):
    if all(x == 0 for x in v):
        return True
    if _dot(phi, v) <= 0:
        return False
    budget[0] -= 1
    if budget[0] < 0:
        raise EnumerationOverflow("monoid membership search budget exhausted")
    g = gens[0]
    rest = gens[1:]
    if not rest:
        # v = c * g has at most one solution c, read off a nonzero entry
        j = next(i for i, y in enumerate(g) if y)
        c, r = divmod(v[j], g[j])
        return r == 0 and c >= 0 and all(x == c * y for x, y in zip(v, g))
    cap = int(_dot(phi, v) / _dot(phi, g))
    for c in range(cap + 1):
        u = tuple(x - c * y for x, y in zip(v, g))
        if _member(u, rest, phi, budget):
            return True
    return False


def in_rational_cone(v, gens):
    """True iff v is a nonnegative rational combination of gens (exact).

    Conic Caratheodory (Schrijver, Theory of Linear and Integer
    Programming, 1986, 7.7): a nonnegative combination moves onto
    independent generators, which extend with zero coefficients to r
    independent ones, r the rank of gens (the cone is 0 when r = 0).  For
    r of them, S, with G = S S^t nonsingular (so det G > 0), v = S^t mu
    has at most the solution det G * mu = adj G S v = c, and v is in their
    cone iff c >= 0 and S^t c = det G v: C(len(gens), r) r x r adjugates.
    """
    rows = ExactMatrix.from_rows(gens).entries
    r = len(hermite_row_basis(rows))
    if not r:
        return not any(v)
    for S in combinations(rows, r):
        S, St = ExactMatrix._of(S), ExactMatrix._of(tuple(zip(*S)))
        try:
            det, adj = adjugate(S.matmul(St))
        except SingularLattice:
            continue
        c = adj.apply(S.apply(v))
        if min(c) >= 0 and St.apply(c) == tuple(det * x for x in v):
            return True
    return False


@dataclass(frozen=True)
class ParallelepipedBasis:
    """Lattice points of the half-open fundamental parallelepiped."""

    vectors: tuple      # the n independent generators
    points: tuple       # lambda: lattice points, lex sorted, 0 among them
    index: int

    @property
    def dim(self):
        return len(self.vectors)

    @cached_property
    def cone(self):
        """(|det W|, C) of the generator matrix W, from _cone_coordinates.

        Derived from vectors alone and computed once per instance; the
        parallelepiped walk stores the pair it has already computed, and
        dataclasses.replace gives a fresh instance that computes its own.
        """
        # checked: a hand-built basis's vectors are not normalised
        return _cone_coordinates(
            ExactMatrix.from_rows(self.vectors).transpose())


def parallelepiped_points(vectors) -> ParallelepipedBasis:
    """Lambda = Z^n intersect par(v_1..v_n) for independent integer vectors:
    labelled_parallelepiped with no columns in M, so every label is ()."""
    vectors = tuple(vectors)
    return labelled_parallelepiped(vectors, ((),) * len(vectors), tuple)[0]


def labelled_parallelepiped(vectors, M, label_columns):
    """(the ParallelepipedBasis of vectors, labels), labels[i] the label
    of sigma M for the i-th point sigma, from one pass over a box.

    The generators are independent, so their Hermite row basis H is upper
    triangular with positive diagonal, and the box prod [0, h_ii) holds
    one residue of each of the |det| classes of Z^n modulo the generator
    lattice (reduce x_1 mod h_11 by row 1, then x_2 mod h_22 by row 2, ...).
    Only that diagonal is needed (_hermite_diagonal).  Each class maps to
    its unique representative x - W floor(W^{-1} x), with the floors
    taken in integers from the adjugate of the generator matrix W.  A box
    of at least _COLUMN_MIN_POINTS points is taken in whole columns, in
    itertools.product order (_box_points): for each row of
    C = |det W| W^{-1}, C_i x over the whole box is one integer list
    (_box_column), and so is each coordinate x_j; the floors
    q_i = C_i x // |det W| are taken column-wise, and
    sigma_j = x_j - sum_i q_i v_ij by one column subtraction per nonzero
    v_ij.  A smaller box is walked one point at a time (_point_walk), as
    the fixed cost of the column passes outweighs its few points there;
    both give the same points in the same order, and a box of one point
    is the point 0.  The points are as many as the box has, the product
    of the Hermite diagonal, and that count must equal |det W|.
    Dependent vectors are refused, and so is a basis of more than
    _POINT_BUDGET points, before any point is built.

    M is a list of n integer rows of one width w (else NonIntegerEntry or
    DimensionMismatch).  label_columns maps the w columns of x M over the
    box, one integer list each, to w columns of labels, entry by entry,
    and the label of an entry must be constant on each class of Z^w
    modulo the row lattice of V M, with V the matrix whose rows are the
    vectors.  Each column of M gives one list over the box, by the same
    _box_column as a row of C (or carried beside C x by the point walk),
    and label_columns runs once on them all.
    A box point x is sent to sigma = x - sum_i q_i v_i, with q_i the
    integer floors, so sigma M = x M - sum_i q_i (v_i M), and v_i M is
    row i of V M; hence the label of x M is the label of sigma M, and it
    is read from x M without the product sigma M.  With no columns in M
    every label is ().  The points are sorted by point alone, each label
    moving with its point.

    A coordinate m splits off when exactly one vector v_i is nonzero at m
    and v_i = e_m.  Then every parallelepiped point is 0 at m: its m-th
    entry is lambda_i, which lies in [0, 1) and is an integer.  The other
    k vectors are 0 at every split coordinate, so restricted to the k
    other coordinates they span the same points, and the columns are
    built on them alone: one k x k adjugate, one k-column Hermite box and
    k rows of C; x is 0 at the split coordinates, so x M only needs the
    rows of M at the others.  Each split coordinate has a zero column in
    its place among the n columns of the points, so one zip gives the
    points in n coordinates.

    The cone pair is assembled exactly.  Up to a permutation of rows and
    columns W = diag(I, W_k), so |det W| = |det W_k|, and W^{-1} x has
    lambda_i = x_m at the vector e_m and W_k^{-1} x_K at the others, x_K
    the other coordinates of x.  As C = |det W| W^{-1}, row i of C is
    |det W| e_m, and the row of each other vector is the matching row of
    C_k = |det W_k| W_k^{-1}, placed at the other columns; this is
    _cone_coordinates(W), for W^{-1} is unique.
    """
    vectors = tuple(_check_ints(v, "vector entry") for v in vectors)
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("need n vectors in Z^n")
    M = tuple(map(tuple, M))
    if len(M) != n or len(set(map(len, M))) > 1:
        raise DimensionMismatch("M needs n rows of one width")
    if not {type(x) for row in M for x in row} <= {int}:
        for row in M:
            _check_ints(row, "M entry")
    width = len(M[0]) if M else 0
    split = _unit_coordinates(vectors)
    core, kept, rows_m = vectors, range(n), M
    if split:
        unit_of = {i: m for m, i in split.items()}
        kept = [m for m in range(n) if m not in split]
        core = tuple(tuple(v[m] for m in kept)
                     for i, v in enumerate(vectors) if i not in unit_of)
        rows_m = [M[m] for m in kept]
    k = len(core)
    W = ExactMatrix._of(core).transpose()  # columns are generators
    index, coords = cone = _cone_coordinates(W)
    if index > _POINT_BUDGET:
        raise EnumerationOverflow(
            f"parallelepiped of {index} points over the budget of "
            f"{_POINT_BUDGET}")
    if split:
        cone_rows, core_rows = [], iter(coords.entries)
        for i in range(n):
            row = [0] * n
            if i in unit_of:
                row[unit_of[i]] = index
            else:
                for m, c in zip(kept, next(core_rows)):
                    row[m] = c
            cone_rows.append(tuple(row))
        cone = index, ExactMatrix._of(tuple(cone_rows))
    radices = _hermite_diagonal(core)
    if math.prod(radices) == 1:
        rows, xm = [(0,) * k], [[0]] * width   # the box is the point 0
    elif index < _COLUMN_MIN_POINTS:
        rows, xm = _point_walk(radices, coords.entries + tuple(zip(*rows_m)),
                               core, index)
    else:
        # both built only when read, the labels' columns before the points'
        rows = None
        sigma = _box_points(radices, coords.entries, core, index)
        xm = (_box_column(column, radices) for column in zip(*rows_m))
    labels = (list(zip(*label_columns(xm))) if width
              else [()] * math.prod(radices))
    del xm
    if rows is not None and not split:
        points = rows
    else:
        columns = [repeat(0)] * n
        for m, column in zip(kept, sigma if rows is None else zip(*rows)):
            columns[m] = column
        # a split coordinate's column repeats 0, and the others end the zip
        points = list(zip(*columns)) if k else [(0,) * n]
        del columns
    if len(points) > 1:
        # by point alone: the points are distinct, so this is the order
        # of the whole pairs, and no label is ever compared
        pairs = list(zip(points, labels))
        del points, labels
        pairs.sort(key=itemgetter(0))
        points, labels = zip(*pairs)
    if len(points) != index or (0,) * n not in points:
        raise InconsistentParallelepiped(
            f"{len(points)} points for index {index}, or 0 missing")
    basis = ParallelepipedBasis(vectors=vectors, points=tuple(points),
                                index=index)
    basis.__dict__["cone"] = cone   # the cached_property, already computed
    return basis, tuple(labels)


def _unit_coordinates(vectors):
    """{m: i} for each coordinate m at which v_i = e_m is the only vector
    that is nonzero: one scan of the entries."""
    n = len(vectors)
    split = {}
    for i, v in enumerate(vectors):
        if v.count(0) == n - 1 and v.count(1) == 1:
            m = v.index(1)
            if sum(1 for w in vectors if w[m]) == 1:
                split[m] = i
    return split


def _hermite_diagonal(rows):
    """The diagonal of the Hermite row basis of independent integer rows.

    For upper triangular rows it is read off as |r_ii|: the lattice
    vectors that vanish on the first i - 1 coordinates are the
    combinations of rows i, i+1, ..., since row j alone is nonzero at
    coordinate j among rows j, j+1, ..., and their i-th entries are the
    multiples of r_ii.  Other rows take one hermite_row_basis pass.
    """
    if all(not any(row[:i]) for i, row in enumerate(rows)):
        return [abs(row[i]) for i, row in enumerate(rows)]
    H = hermite_row_basis(rows)
    return [H[i][i] for i in range(len(rows))]


def _box_points(radices, C, core, index):
    """The columns sigma_j = x_j - sum_i q_i v_ij over the box prod
    range(r_i), in itertools.product order, one per coordinate j of the
    vectors v_i of core, with q_i = C_i x // index.

    Each row of C and each coordinate x_j is one integer list over the
    whole box (_box_column), and the floors and the sums are taken over
    those lists; a column is built when it is read.  A floor that is 0
    over the whole box subtracts nothing and is dropped: for upper
    triangular vectors with positive diagonal, C_1 x = |det W| x_1 / v_11
    and x_1 < v_11 on the box, so q_1 is.
    """
    floors = []
    for row, v in zip(C, core):
        q = list(map(floordiv, _box_column(row, radices), repeat(index)))
        if any(q):
            floors.append((q, v))
    k = len(core)
    for j in range(k):
        column = _box_column([int(i == j) for i in range(k)], radices)
        for q, v in floors:
            if v[j] == 1:
                column = list(map(sub, column, q))
            elif v[j]:
                column = list(map(sub, column, map(mul, q, repeat(v[j]))))
        yield column


def _point_walk(radices, rows, core, index):
    """(the points of _box_points as rows, the columns of x M over the
    box), rows the rows of C and then the columns of M: from one box point
    at a time, as _box_walk carries C x and x M by one column add per
    step, and each point subtracts one vector per nonzero floor."""
    k = len(core)
    sigma, xm = [], []
    for x, cx in _box_walk(radices, rows):
        for c, v in zip(cx, core):
            q = c // index
            if q:
                x = tuple([a - q * b for a, b in zip(x, v)])
        sigma.append(x)
        xm.append(cx[k:])
    return sigma, list(zip(*xm))


def _box_walk(radices, rows):
    """(x, C x) for every x in prod range(r_i), in itertools.product order,
    C the matrix of the integer rows.

    Stepping x_i by one adds column i of C to C x.  The last coordinate
    of radix above 1 is streamed, and only the prefixes before it are
    held, so memory stays a 1/r share of the box, r that radix; the
    coordinates after it have radix 1 and stay 0.
    """
    if not radices:
        yield (), (0,) * len(rows)
        return
    m = len(radices)
    while m > 1 and radices[m - 1] == 1:
        m -= 1
    columns = tuple(zip(*rows))
    walk = [((), (0,) * len(rows))]     # (prefix of x, C prefix)
    for r, column in zip(radices[:m - 1], columns):
        grown = []
        for x, cx in walk:
            for k in range(r):
                grown.append((x + (k,), cx))
                cx = tuple(map(add, cx, column))
        walk = grown
    zeros = (0,) * (len(radices) - m)
    steps = [(k,) + zeros for k in range(radices[m - 1])]
    column = columns[m - 1]
    for x, cx in walk:
        for step in steps:
            yield x + step, cx
            cx = tuple(map(add, cx, column))


def _box_column(row, radices):
    """row . x for every x in prod range(r_i), in itertools.product order:
    one list, grown one coordinate at a time from the last, the fastest,
    with r copies of the list so far for a coordinate of radix r; a
    coordinate of radix 1 is 0 and is skipped.  While the list is all 0,
    a coordinate's values are repeated rather than added to 0, so the
    entries share one int object per value."""
    column, zero = [0], True
    for c, r in zip(reversed(row), reversed(radices)):
        if r == 1:
            continue
        if not c:
            column *= r
        elif zero:
            column = [s for s in range(0, r * c, c) for _ in column]
            zero = False
        else:
            column = [a + s for s in range(0, r * c, c) for a in column]
    return column


def _cone_coordinates(W: ExactMatrix):
    """(|det W|, C) with C = sign(det W) * adj W, so C x = |det W| W^{-1} x.

    x lies in the rational cone of the columns of W exactly when C x >= 0,
    and in the monoid they generate when moreover C x = 0 mod |det W|.
    """
    try:
        return abs_adjugate(W)
    except SingularLattice:
        raise DependentGenerators(
            "parallelepiped generators are dependent") from None


@dataclass(frozen=True)
class DecompositionReport:
    """Box-bounded verification of the disjoint coset decomposition."""

    box_bound: int
    checked_points: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def verify_disjoint_decomposition(basis: ParallelepipedBasis,
                                  M: AffineMonoid,
                                  box_bound) -> DecompositionReport:
    """Check every saturation point of [0, box)^n lies in exactly one coset.

    The monoid must be simplicial, generated by the parallelepiped vectors.
    Violations list (point, coset_count) pairs in itertools.product order
    of the box; an empty list certifies the decomposition on the box.

    With C = sign(det W) adj W for the generator matrix W (basis.cone,
    one adjugate per basis), a box point w is in the cone exactly when
    C w >= 0, and w - x lies in M exactly when C w - C x >= 0 and
    = 0 mod |det W| componentwise.  When the listed points have |det W|
    distinct C x, each in [0, |det W|)^n, they are one point of each
    residue class, and C x is its own residue: a cone point w is hit by
    the x of its class alone, as C w >= C w mod |det W| = C x.  Then only
    the cone points are counted, one line of the last coordinate at a
    time: the k in [0, box) with C w + k c >= 0, w a prefix in the first
    n - 1 coordinates and c the last column of C, form one range, read
    off by one floor division per row.  The arithmetic runs one row of C
    at a time over whole columns: row i of C x for every listed point is
    one list, from the transposed points, and row i of C w for all
    box^(n-1) prefixes is one list from _box_column, which updates the
    bounds of every line and is then dropped, so a few such lists are
    alive at once.  The products come from the listed points, not from
    the columns that built them, so the check stays independent of them.  Any
    other point list (a hand-built or tampered basis) has the hits of
    each cone point counted by _hits, over the same bounds, so a missing,
    repeated or wrong point shows up as a violation.  On that path every
    listed point x outside the cone (C x with a negative entry) is
    reported as (x, 0) after the box points: x + M leaves the saturation,
    yet a point moved down by a generator still gives each cone point of
    its class one hit, so the counts alone would not show it.  A
    well-formed list has every C x in [0, |det W|)^n, so all its points
    lie in the cone.
    """
    if set(M.generators) != set(basis.vectors):
        raise DependentGenerators(
            "monoid must be generated by the parallelepiped vectors")
    _check_ints((box_bound,), "box bound")
    if box_bound < 1:
        raise ValueError("box_bound must be positive")
    n = basis.dim
    if box_bound ** n > _SEARCH_BUDGET:
        raise EnumerationOverflow(f"{box_bound}^{n} box points over budget")
    index, coords = basis.cone
    points = basis.points
    if not set(map(len, points)) <= {n}:
        raise DimensionMismatch("vector length != column count")
    if not n:
        # the box is the one point (), hit by every listed point
        hits = len(points)
        return DecompositionReport(
            box_bound=box_bound, checked_points=1,
            violations=() if hits == 1 else (((), hits),))
    columns = list(zip(*points)) or [()] * n
    cx_rows = []
    for row in coords.entries:
        cx = None
        for c, column in zip(row, columns):
            if c:
                term = map(mul, column, repeat(c))
                cx = list(term if cx is None else map(add, cx, term))
        cx_rows.append(cx)
    by_residue = heads = None
    if not (len(points) == index
            and min(map(min, cx_rows)) >= 0
            and max(map(max, cx_rows)) < index
            and len(set(zip(*cx_rows))) == index):
        by_residue, heads = {}, []
        for cx in zip(*cx_rows):
            by_residue.setdefault(tuple(c % index for c in cx), []).append(cx)
    # the k of line w lie in [-neg_lo, end): neg_lo is the least of 0
    # and C_i w // c_i over the rows with c_i > 0, and end the least of
    # box_bound and C_i w // -c_i + 1 over the rows with c_i < 0
    lines = box_bound ** (n - 1)
    neg_lo, end = [0] * lines, [box_bound] * lines
    box = (box_bound,) * (n - 1)
    for row in coords.entries:
        head, c = _box_column(row[:-1], box), row[-1]
        if c > 0:
            neg_lo = list(map(min, neg_lo, map(floordiv, head, repeat(c))))
        elif c < 0:
            end = list(map(min, end, map(
                floordiv, map(sub, head, repeat(c)), repeat(-c))))
        else:
            # a line with C_i w < 0 holds no cone point: its end is 0
            end = list(map(min, end, map(
                mul, map(ge, head, repeat(0)), repeat(box_bound))))
        if heads is not None:
            heads.append(head)
    checked = sum(map(max, map(add, end, neg_lo), repeat(0)))
    if by_residue is None:
        return DecompositionReport(box_bound=box_bound,
                                   checked_points=checked, violations=())
    last = tuple(row[-1] for row in coords.entries)
    violations = []
    for w, cw, neg, stop in zip(product(range(box_bound), repeat=n - 1),
                                zip(*heads), neg_lo, end):
        for k in range(-neg, stop):
            hits = _hits(by_residue, index,
                         tuple(a + k * c for a, c in zip(cw, last)))
            if hits != 1:
                violations.append((w + (k,), hits))
    violations += [(x, 0) for x, cx in zip(points, zip(*cx_rows))
                   if min(cx) < 0]
    return DecompositionReport(box_bound=box_bound, checked_points=checked,
                               violations=tuple(violations))


def _hits(by_residue, index, cw):
    """How many listed points x, grouped by_residue of C x, have w - x in
    the monoid: C x of w's class with C w - C x >= 0."""
    return sum(1 for cx in by_residue.get(tuple(c % index for c in cw), ())
               if all(map(ge, cw, cx)))
