"""Finitely generated pointed submonoids of Z^n.

Fundamental-parallelepiped generator sets and the disjoint coset
decomposition of the saturation.  Pointedness is certified at construction
by a strictly positive linear functional, which makes exact membership
decidable by bounded search.  For n independent generators the
parallelepiped points and the decomposition check use exact integer cone
coordinates from one adjugate per basis instead, carried along by one
streaming mixed-radix walk.  labelled_parallelepiped is the one body of
the parallelepiped walk, and parallelepiped_points is that walk with no
labels.  It first splits off every unit coordinate, so its adjugate,
Hermite box and walk are those of the rest (for a strong monomial form,
of the T-block), and walks every point of that box; the decomposition
check settles a well-formed point list from the points' residues and
only counts the cone, one line of the last coordinate at a time, and
reports any other list's points that lie outside the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import add, ge, itemgetter

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


@dataclass(frozen=True)
class AffineMonoid:
    """Monoid generated by integer vectors, with pointedness certificate."""

    dim: int
    generators: tuple
    positivity_functional: tuple

    def __post_init__(self):
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
    return labelled_parallelepiped(vectors, (), tuple)[0]


def labelled_parallelepiped(vectors, M, label):
    """(the ParallelepipedBasis of vectors, labels), labels[i] = label(sigma
    M) for the i-th point sigma, from one walk of a box.

    The generators are independent, so their Hermite row basis H is upper
    triangular with positive diagonal, and the box prod [0, h_ii) holds
    one residue of each of the |det| classes of Z^n modulo the generator
    lattice (reduce x_1 mod h_11 by row 1, then x_2 mod h_22 by row 2, ...).
    Each class maps to its unique representative x - W floor(W^{-1} x),
    with the floors taken in integers from the adjugate of the generator
    matrix W: one generator subtracted per nonzero floor.  The box is
    walked by _box_walk, which carries C x = |det W| W^{-1} x along by one
    column add per step.  Dependent vectors are refused, and so is a basis
    of more than _POINT_BUDGET points, before the walk.

    M is a list of n integer rows, and label must be constant on each
    class of Z^w, w the width of M, modulo the row lattice of V M, with V
    the matrix whose rows are the vectors.  The walk carries x M beside
    C x: stacking the columns of M under the rows of C, one column add
    per step moves both.
    A box point x is sent to sigma = x - sum_i q_i v_i, with q_i the
    integer floors, so sigma M = x M - sum_i q_i (v_i M), and v_i M is
    row i of V M; hence label(x M) = label(sigma M), and the label is read
    from the carried x M without the product sigma M.  With no columns in
    M every label is label(()).

    A coordinate m splits off when exactly one vector v_i is nonzero at m
    and v_i = e_m.  Then every parallelepiped point is 0 at m: its m-th
    entry is lambda_i, which lies in [0, 1) and is an integer.  The other
    k vectors are 0 at every split coordinate, so restricted to the k
    other coordinates they span the same points, and the walk runs on
    them alone: one k x k adjugate, one k-column Hermite box and k-long
    rows of C x; x is 0 at the split coordinates, so x M only needs the
    rows of M at the others, and the label argument runs on the other
    vectors.  The sorted points are put back into n coordinates, 0 at the
    split ones; the zeros sit in fixed places, so lex order is kept.

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
    split = _unit_coordinates(vectors)
    core, columns, widen = vectors, tuple(zip(*M)), tuple
    if split:
        unit_of = {i: m for m, i in split.items()}
        kept = [m for m in range(n) if m not in split]
        core = tuple(tuple(v[m] for m in kept)
                     for i, v in enumerate(vectors) if i not in unit_of)
        columns = tuple(tuple(col[m] for m in kept) for col in columns)
        widen = _widener(n, kept)
    k = len(core)
    W = ExactMatrix._of(core).transpose()  # columns are generators
    index, coords = cone = _cone_coordinates(W)
    if index > _POINT_BUDGET:
        raise EnumerationOverflow(
            f"parallelepiped of {index} points over the budget of "
            f"{_POINT_BUDGET}")
    if split:
        core_rows = iter(widen(coords.entries))
        cone = index, ExactMatrix._of(tuple(
            tuple(index if j == unit_of[i] else 0 for j in range(n))
            if i in unit_of else next(core_rows) for i in range(n)))
    H = hermite_row_basis(core)
    pairs = []
    for x, cx in _box_walk([H[i][i] for i in range(k)],
                           coords.entries + columns):
        for c, v in zip(cx, core):
            q = c // index
            if q:
                x = tuple([a - q * b for a, b in zip(x, v)])
        pairs.append((x, label(cx[k:])))
    # the points are distinct, so the sort never compares two labels
    pairs.sort()
    points, labels = zip(*pairs)
    points = widen(points)
    if len(points) != index or (0,) * n not in points:
        raise InconsistentParallelepiped(
            f"{len(points)} points for index {index}, or 0 missing")
    basis = ParallelepipedBasis(vectors=vectors, points=points, index=index)
    basis.__dict__["cone"] = cone   # the cached_property, already computed
    return basis, labels


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


def _widener(n, kept):
    """The map of sorted points of the kept coordinates to the same points
    in Z^n, 0 at the other coordinates."""
    if not kept:
        # the one core point is ()
        return lambda points: tuple((0,) * n for _ in points)
    # n > len(kept) >= 1, so pick gets two or more indices and gives tuples
    slot = {m: j for j, m in enumerate(kept)}
    pick = itemgetter(*(slot.get(m, len(kept)) for m in range(n)))
    return lambda points: tuple(pick(x + (0,)) for x in points)


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
    time: _box_walk carries C w over the first n - 1 coordinates, and the
    k in [0, box) with C w + k c >= 0, c the last column of C, form one
    range, read off by one floor division per row.  Any other point list
    (a hand-built or tampered basis) has the hits of each cone point
    counted by _hits, so a missing, repeated or wrong point shows up as
    a violation.  On that path every listed point x outside the cone
    (C x with a negative entry) is reported as (x, 0) after the box
    points: x + M leaves the saturation, yet a point moved down by a
    generator still gives each cone point of its class one hit, so the
    counts alone would not show it.  A well-formed list has every C x in
    [0, |det W|)^n, so all its points lie in the cone.
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
    cxs = [coords.apply(x) for x in basis.points]
    if not n:
        # the box is the one point (), hit by every listed point
        hits = len(cxs)
        return DecompositionReport(
            box_bound=box_bound, checked_points=1,
            violations=() if hits == 1 else (((), hits),))
    by_residue = None
    if not (len(set(cxs)) == len(cxs) == index
            and all(0 <= c < index for cx in cxs for c in cx)):
        by_residue = {}
        for cx in cxs:
            by_residue.setdefault(tuple(c % index for c in cx), []).append(cx)
    last = tuple(row[-1] for row in coords.entries)
    head = tuple(row[:-1] for row in coords.entries)
    top = box_bound - 1
    checked = 0
    violations = []
    for w, cw in _box_walk((box_bound,) * (n - 1), head):
        lo, hi = 0, top
        for a, c in zip(cw, last):
            if c > 0:
                if -(a // c) > lo:
                    lo = -(a // c)
            elif c < 0:
                if a // -c < hi:
                    hi = a // -c
            elif a < 0:
                hi = -1
        if lo > hi:
            continue
        checked += hi - lo + 1
        if by_residue is None:
            continue
        for k in range(lo, hi + 1):
            hits = _hits(by_residue, index,
                         tuple(a + k * c for a, c in zip(cw, last)))
            if hits != 1:
                violations.append((w + (k,), hits))
    if by_residue is not None:
        violations += [(x, 0) for x, cx in zip(basis.points, cxs)
                       if min(cx) < 0]
    return DecompositionReport(box_bound=box_bound, checked_points=checked,
                               violations=tuple(violations))


def _hits(by_residue, index, cw):
    """How many listed points x, grouped by_residue of C x, have w - x in
    the monoid: C x of w's class with C w - C x >= 0."""
    return sum(1 for cx in by_residue.get(tuple(c % index for c in cw), ())
               if all(map(ge, cw, cx)))
