import hashlib
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from gradedval import affine_monoids
from gradedval.affine_monoids import (
    AffineMonoid,
    DecompositionReport,
    DependentGenerators,
    in_rational_cone,
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from gradedval.errors import (
    EnumerationOverflow,
    InconsistentParallelepiped,
    NotPointed,
)
from gradedval.exact_lattice import (
    ExactMatrix,
    adjugate,
    determinant,
    hermite_row_basis,
    solve_rational,
)
from test_exact_lattice import rref


def monoid(*gens):
    dim = len(gens[0])
    return AffineMonoid(dim=dim, generators=tuple(gens),
                        positivity_functional=(1,) * dim)


def simplicial_monoid(vecs):
    """Monoid of independent vectors, certified by phi with phi . v_i = 1."""
    n = len(vecs)
    phi = solve_rational(ExactMatrix.from_rows(vecs), (1,) * n)
    return AffineMonoid(dim=n, generators=vecs, positivity_functional=phi)


def brute_force_decomposition(basis, M, box_bound):
    """Reference for verify_disjoint_decomposition: the rational cone test
    per box point and a membership search per (point, lambda), then
    (lambda, 0) for each listed lambda outside the cone."""
    n = basis.dim
    checked = 0
    violations = []
    for w in product(range(box_bound), repeat=n):
        if not in_rational_cone(w, basis.vectors):
            continue
        checked += 1
        hits = sum(
            1 for x in basis.points
            if M.contains(tuple(a - b for a, b in zip(w, x)))
        )
        if hits != 1:
            violations.append((w, hits))
    violations += [(x, 0) for x in basis.points
                   if not in_rational_cone(x, basis.vectors)]
    return DecompositionReport(box_bound=box_bound, checked_points=checked,
                               violations=tuple(violations))


def parallelepiped_oracle(vectors):
    """The box walk parallelepiped_points replaced: every point x of the
    Hermite box prod [0, h_ii) is mapped to x - W floor(C x / |det W|)
    with a full product C x against the sign-adjusted adjugate."""
    n = len(vectors)
    W = ExactMatrix.from_rows(vectors).transpose()
    d, adj = adjugate(W)
    C = ExactMatrix(tuple(tuple(x if d > 0 else -x for x in row)
                          for row in adj.entries))
    H = hermite_row_basis(vectors)
    pts = []
    for x in product(*[range(H[i][i]) for i in range(n)]):
        floors = tuple(c // abs(d) for c in C.apply(x))
        pts.append(tuple(a - b for a, b in zip(x, W.apply(floors))))
    return tuple(sorted(pts))


def random_simplicial_bases(rng, count, max_index=40):
    """Independent integer bases, n <= 4, with both determinant signs."""
    done = 0
    while done < count:
        n = rng.randint(1, 4)
        span = 4 if n <= 2 else 2
        vecs = tuple(tuple(rng.randint(-span, span) for _ in range(n))
                     for _ in range(n))
        d = determinant(ExactMatrix.from_rows(vecs))
        if d == 0 or abs(d) > max_index:
            continue
        done += 1
        yield vecs, d


def test_pointedness_certificate():
    with pytest.raises(NotPointed):
        AffineMonoid(dim=2, generators=((1, 0), (-1, 0)),
                     positivity_functional=(1, 1))


def test_integer_certificate_matches_fraction_signs():
    # phi scaled by the lcm of its denominators, against Fraction dots
    rng = random.Random(80)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        phi = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                    for _ in range(n))
        gens = tuple(tuple(rng.randint(-2, 3) for _ in range(n))
                     for _ in range(rng.randint(1, 3)))
        pointed = all(sum(a * b for a, b in zip(phi, g)) > 0 for g in gens)
        outcomes.add(pointed)
        if pointed:
            M = AffineMonoid(dim=n, generators=gens, positivity_functional=phi)
            assert M.positivity_functional == phi
        else:
            with pytest.raises(NotPointed):
                AffineMonoid(dim=n, generators=gens, positivity_functional=phi)
    assert outcomes == {True, False}
    # zero on a generator, with no integral multiple of phi in sight
    with pytest.raises(NotPointed):
        AffineMonoid(dim=2, generators=((3, 2),),
                     positivity_functional=(Fraction(2, 3), Fraction(-1)))


def test_membership_basic():
    M = monoid((2, 0), (0, 2), (1, 1))
    assert M.contains((1, 1))
    assert M.contains((3, 1))
    assert not M.contains((1, 0))


def test_parallelepiped_unit_vectors():
    pb = parallelepiped_points(((1, 0), (0, 1)))
    assert pb.points == ((0, 0),)
    assert pb.index == 1


def test_parallelepiped_diag_2_3():
    pb = parallelepiped_points(((2, 0), (0, 3)))
    expected = tuple(sorted((a, b) for a in range(2) for b in range(3)))
    assert pb.points == expected
    assert pb.index == 6


def test_parallelepiped_skew():
    pb = parallelepiped_points(((1, 1), (0, 2)))
    assert pb.points == ((0, 0), (0, 1))
    assert pb.index == 2


def test_parallelepiped_rank_zero():
    # Z^0 is its own parallelepiped: one point, the empty tuple
    pb = parallelepiped_points(())
    assert pb.points == ((),)
    assert pb.index == 1
    report = verify_disjoint_decomposition(
        pb, AffineMonoid(dim=0, generators=(), positivity_functional=()),
        box_bound=3)
    assert report.ok
    assert report.checked_points == 1


def test_box_walk_matches_product_order():
    # the shared walk against itertools.product and a full product C x,
    # radix 1 and n = 0, 1 included
    rng = random.Random(79)
    seen_n, seen_radix_1 = set(), False
    for _ in range(120):
        n = rng.randint(0, 4)
        C = ExactMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                              for _ in range(n)))
        radices = [rng.randint(1, 4) for _ in range(n)]
        walked = list(affine_monoids._box_walk(radices, C.entries))
        expected = [(x, C.apply(x))
                    for x in product(*(range(r) for r in radices))]
        assert walked == expected, (C, radices)
        seen_n.add(n)
        seen_radix_1 |= 1 in radices
    assert seen_n == {0, 1, 2, 3, 4} and seen_radix_1
    # no radices: the one point (), and C () is a zero column of C's height
    for height in range(4):
        C = ExactMatrix(((),) * height)
        assert list(affine_monoids._box_walk((), C.entries)) == \
            [((), (0,) * height)]


def test_decomposition_box_walk_streams():
    # 10^5 box points at the budget: the walk holds the 10^4 prefixes of
    # the first four coordinates, not a list of every point
    vecs = ((2, 0, 0, 0, 0), (1, 3, 0, 0, 0), (0, 1, 1, 0, 0),
            (0, 0, 1, 2, 0), (1, 0, 0, 1, 1))
    pb = parallelepiped_points(vecs)
    M = monoid(*vecs)
    assert 10 ** 5 == affine_monoids._SEARCH_BUDGET
    tracemalloc.start()
    try:
        report = verify_disjoint_decomposition(pb, M, box_bound=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert report.checked_points == 14523
    assert peak < 10 * 2 ** 20, peak


def test_one_adjugate_per_basis(monkeypatch):
    # the check reads the cone coordinates parallelepiped_points computed;
    # a replaced basis is a fresh instance and computes its own
    real = affine_monoids.abs_adjugate
    calls = []

    def counting(W):
        calls.append(W)
        return real(W)

    monkeypatch.setattr(affine_monoids, "abs_adjugate", counting)
    vecs = ((2, 1), (0, 3))
    pb = parallelepiped_points(vecs)
    M = simplicial_monoid(vecs)
    assert verify_disjoint_decomposition(pb, M, box_bound=5).ok
    assert verify_disjoint_decomposition(pb, M, box_bound=6).ok
    assert len(calls) == 1
    fresh = replace(pb)
    assert fresh.cone == pb.cone
    assert len(calls) == 2


def test_unchecked_cone_matrices_equal_checked_ones(monkeypatch):
    # parallelepiped_points builds W, and abs_adjugate the negated
    # adjugate when det W < 0, without the entry check; both are what
    # the checked constructor would build
    def check(m):
        assert all(type(row) is tuple for row in m.entries)
        assert all(type(x) is int for row in m.entries for x in row)
        assert m == ExactMatrix(m.entries)

    real = affine_monoids.abs_adjugate

    def checking(W):
        check(W)
        return real(W)

    monkeypatch.setattr(affine_monoids, "abs_adjugate", checking)
    rng = random.Random(1018)
    signs = set()
    while len(signs) < 2 or rng.random() < 0.98:
        n = rng.randint(1, 3)
        vecs = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(n))
        d = determinant(ExactMatrix.from_rows(vecs))
        if not d or abs(d) > 40:
            continue
        signs.add(d > 0)
        index, C = parallelepiped_points(vecs).cone
        check(C)
        assert index == abs(d)


def test_parallelepiped_dependent():
    with pytest.raises(DependentGenerators):
        parallelepiped_points(((1, 1), (2, 2)))


def test_parallelepiped_count_matches_index_random():
    rng = random.Random(77)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        vecs = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(n))
        d = determinant(ExactMatrix.from_rows(vecs))
        if d == 0 or abs(d) > 30:
            continue
        pb = parallelepiped_points(vecs)
        assert len(pb.points) == pb.index == abs(d)
        done += 1


def with_unit_coordinates(rng, vecs):
    """vecs in a larger Z^N: 1 to 3 new coordinates at random places, 0 in
    every vector, each with its unit vector added; the vectors shuffled."""
    N = len(vecs) + rng.randint(1, 3)
    units = rng.sample(range(N), N - len(vecs))
    kept = [m for m in range(N) if m not in units]
    out = [tuple(v[kept.index(m)] if m in kept else 0 for m in range(N))
           for v in vecs]
    out += [tuple(int(j == m) for j in range(N)) for m in units]
    rng.shuffle(out)
    return tuple(out)


def full_cone(vecs):
    """_cone_coordinates of the whole generator matrix, no split."""
    return affine_monoids._cone_coordinates(
        ExactMatrix.from_rows(vecs).transpose())


def test_parallelepiped_walk_matches_oracle_on_seeded_bases():
    # each basis as drawn and with unit coordinates put in, which the walk
    # splits off; the assembled cone is that of the whole matrix.  A unit
    # vector e_m splits only when no other vector is nonzero at m
    rng = random.Random(80)
    bases = [b for vecs, _ in random_simplicial_bases(random.Random(78), 80)
             for b in (vecs, with_unit_coordinates(rng, vecs))]
    bases += [((1, 0, 0), (1, 2, 0), (0, 1, 3)),    # e_0, not alone at 0
              ((0, 1, 0), (1, 0, 0), (0, 1, 2)),    # e_0 splits, e_1 not
              ((0, 1), (1, 0))]                     # both split, k = 0
    signs, split = set(), set()
    for vecs in bases:
        d = determinant(ExactMatrix.from_rows(vecs))
        signs.add(d > 0)
        pb = parallelepiped_points(vecs)
        assert pb.points == parallelepiped_oracle(vecs), vecs
        assert pb.cone == full_cone(vecs), vecs
        units = affine_monoids._unit_coordinates(vecs)
        split.add(min(len(units), 1))
        for m, i in units.items():
            assert vecs[i] == tuple(int(j == m) for j in range(len(vecs)))
            assert [v[m] for v in vecs].count(0) == len(vecs) - 1
    assert signs == {True, False} and split == {0, 1}
    assert affine_monoids._unit_coordinates(bases[-3]) == {}
    assert affine_monoids._unit_coordinates(bases[-2]) == {0: 1}
    assert affine_monoids._unit_coordinates(bases[-1]) == {0: 1, 1: 0}


def test_parallelepiped_walk_matches_oracle_at_e_10000():
    # the exponent matrix of a t = (3, 3), g = (100, 100) extension:
    # T-rows 0 and 3, the first block's rows also on T-column 3
    rows = [[0] * 6 for _ in range(6)]
    for i, h in zip(range(6), (2, 1, 3, 0, 0, 0)):
        rows[i][i] = 100 if i in (0, 3) else 1
        rows[i][3] += h
    pb = parallelepiped_points(rows)
    assert pb.index == 10_000
    assert pb.points == parallelepiped_oracle(rows)


def test_disjoint_decomposition_unit():
    pb = parallelepiped_points(((1, 0), (0, 1)))
    M = monoid((1, 0), (0, 1))
    report = verify_disjoint_decomposition(pb, M, box_bound=4)
    assert report.ok
    assert report.checked_points == 16


def test_disjoint_decomposition_diag_2_3():
    pb = parallelepiped_points(((2, 0), (0, 3)))
    M = monoid((2, 0), (0, 3))
    report = verify_disjoint_decomposition(pb, M, box_bound=6)
    assert report.ok
    assert report.checked_points == 36


def test_disjoint_decomposition_skew():
    pb = parallelepiped_points(((1, 1), (0, 2)))
    M = monoid((1, 1), (0, 2))
    report = verify_disjoint_decomposition(pb, M, box_bound=4)
    assert report.ok
    # saturation is the cone x >= 0, y >= x ... actually cone of (1,1),(0,2):
    # points with 0 <= x <= y
    assert report.checked_points == sum(
        1 for x, y in product(range(4), repeat=2) if 0 <= x <= y)


def test_saturation_reachable_from_parallelepiped():
    # Lemma-style check: every box point of the saturation is lambda + m
    pb = parallelepiped_points(((1, 1), (0, 2)))
    M = monoid((1, 1), (0, 2))
    for w in product(range(5), repeat=2):
        if in_rational_cone(w, pb.vectors):
            assert any(
                M.contains(tuple(a - b for a, b in zip(w, x)))
                for x in pb.points)


def test_decomposition_matches_brute_force_random():
    # well-formed bases at n = 1 .. 4, with and without a zero in the last
    # column of C, and each again with one seeded tampering
    rng = random.Random(1919)
    signs, zero_last, kinds, failed = set(), set(), set(), set()
    bases = list(random_simplicial_bases(random.Random(41), 60))
    bases.append((((2, 1, 0), (0, 3, 1), (0, 0, 2)), 12))
    for vecs, d in bases:
        pb = parallelepiped_points(vecs)
        M = simplicial_monoid(vecs)
        # the oracle's membership search grows fast with n
        box = (4, 4, 3, 2)[len(vecs) - 1]
        fast = verify_disjoint_decomposition(pb, M, box_bound=box)
        assert fast == brute_force_decomposition(pb, M, box)
        assert fast.ok
        signs.add(d > 0)
        zero_last.add(any(row[-1] == 0 for row in pb.cone[1].entries))
        kind, pts = tamper(rng, pb)
        bad = replace(pb, points=pts)
        fast = verify_disjoint_decomposition(bad, M, box_bound=box)
        assert fast == brute_force_decomposition(bad, M, box), (vecs, kind)
        kinds.add(kind)
        if fast.violations:
            failed.add(len(vecs))
    assert signs == zero_last == {True, False}
    assert kinds == set(TAMPERINGS)
    assert failed == {1, 2, 3, 4}


TAMPERINGS = ("dropped", "duplicated", "replaced", "translated", "lowered")


def tamper(rng, basis, kind=None):
    """(kind, points) with one listed point dropped, duplicated, replaced
    by its neighbour (the count stays |det W|), or translated up or
    lowered by a generator: the same class, C x out of [0, |det W|).
    The kind is drawn when none is given."""
    pts = list(basis.points)
    i = rng.randrange(len(pts))
    if kind is None:
        kind = rng.choice(TAMPERINGS)
    if kind == "dropped":
        del pts[i]
    elif kind == "duplicated":
        pts.append(pts[i])
    elif kind == "replaced":
        pts[i] = pts[i - 1]
    else:
        g = rng.choice(basis.vectors)
        sign = 1 if kind == "translated" else -1
        pts[i] = tuple(a + sign * b for a, b in zip(pts[i], g))
    return kind, tuple(pts)


def tampered_bases():
    vecs = ((2, 1), (0, 3))
    pb = parallelepiped_points(vecs)
    pts = list(pb.points)
    translate = tuple(a + b for a, b in zip(pts[2], vecs[0]))
    # (1, 1) - (0, 3) and (0, 0) - (2, 1), outside the cone 0 <= x <= 2y;
    # each cone point of their class is still hit once, yet, say,
    # (5, 0) = (1, -2) + 2 (2, 1) is in the box and in that coset
    assert pts[:4] == [(0, 0), (0, 1), (0, 2), (1, 1)]
    return vecs, {
        "dropped": pts[:2] + pts[3:],
        "translated": pts[:2] + [translate] + pts[3:],
        "duplicated": pts + [pts[4]],
        "lowered": pts[:3] + [(1, -2)] + pts[4:],
        "lowered_origin": [(-2, -1)] + pts[1:],
    }, pb


@pytest.mark.parametrize("kind", ["dropped", "translated", "duplicated",
                                  "lowered", "lowered_origin"])
def test_tampered_points_give_oracle_violations(kind):
    vecs, tampered, pb = tampered_bases()
    bad = replace(pb, points=tuple(tampered[kind]))
    M = simplicial_monoid(vecs)
    fast = verify_disjoint_decomposition(bad, M, box_bound=7)
    assert fast == brute_force_decomposition(bad, M, 7)
    assert not fast.ok
    counts = {hits for _, hits in fast.violations}
    # a translate leaves its class uncovered below it, like a dropped
    # point; a lowered point is reported alone, as outside the cone
    assert counts == ({2} if kind == "duplicated" else {0})
    if kind.startswith("lowered"):
        moved, = set(bad.points) - set(pb.points)
        assert not in_rational_cone(moved, vecs)
        assert fast.violations == ((moved, 0),)


def test_wrong_point_made_inside_the_walk_is_caught(monkeypatch):
    # the walk's own C x is trusted to pick each point; one wrong entry
    # sends the second box point, (0, 1), down by 166 (2, 1), out of the
    # cone, and the basis built from it is reported, not certified
    real = affine_monoids._box_walk

    def wrong_walk(radices, rows):
        for i, (x, cx) in enumerate(real(radices, rows)):
            if i == 1:
                assert x == (0, 1)
                cx = (cx[0] + 1000,) + cx[1:]
            yield x, cx

    vecs = ((2, 1), (0, 3))
    good = parallelepiped_points(vecs)
    M = simplicial_monoid(vecs)
    with monkeypatch.context() as m:
        m.setattr(affine_monoids, "_box_walk", wrong_walk)
        bad = parallelepiped_points(vecs)
    assert bad != good and bad.cone == good.cone
    wrong = (-332, -165)
    assert set(bad.points) - set(good.points) == {wrong}
    report = verify_disjoint_decomposition(bad, M, box_bound=6)
    assert not report.ok and report.violations == ((wrong, 0),)
    assert report == brute_force_decomposition(bad, M, 6)


def test_well_formed_basis_counts_lines_not_points(monkeypatch):
    # 300^2 box points: each row of C gets one prefix column of the 300
    # lines of the last coordinate, and no point's hits are counted; a
    # tampered list counts the hits of each cone point, and of no other
    vecs = ((2, 1), (0, 3))
    pb = parallelepiped_points(vecs)
    M = simplicial_monoid(vecs)
    prefixes, hits = [], []
    real_prefixes, real_hits = (affine_monoids._prefix_column,
                                affine_monoids._hits)

    def counting_prefixes(head, box):
        column = real_prefixes(head, box)
        prefixes.append(len(column))
        return column

    def counting_hits(*args):
        hits.append(args)
        return real_hits(*args)

    monkeypatch.setattr(affine_monoids, "_prefix_column", counting_prefixes)
    monkeypatch.setattr(affine_monoids, "_hits", counting_hits)
    report = verify_disjoint_decomposition(pb, M, box_bound=300)
    # the cone of (2, 1) and (0, 3) is 0 <= x <= 2y
    cone = sum(1 for x, y in product(range(300), repeat=2) if x <= 2 * y)
    assert report.ok and report.checked_points == cone
    assert prefixes == [300, 300] and not hits
    bad = replace(pb, points=pb.points[1:])
    report = verify_disjoint_decomposition(bad, M, box_bound=300)
    assert report.checked_points == cone == len(hits)
    assert prefixes == [300] * 4 and not report.ok


def line_walk_decomposition_oracle(basis, M, box_bound):
    """The line walk verify_disjoint_decomposition replaced: C x of each
    listed point by a full product, the premise tested per point, and
    C w carried over the first n - 1 coordinates by _box_walk, with lo and
    hi of each line of the last coordinate from one floor division per
    row in a Python loop."""
    n = basis.dim
    index, coords = basis.cone
    cxs = [coords.apply(x) for x in basis.points]
    if not n:
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
    for w, cw in affine_monoids._box_walk((box_bound,) * (n - 1), head):
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
            hits = affine_monoids._hits(
                by_residue, index, tuple(a + k * c for a, c in zip(cw, last)))
            if hits != 1:
                violations.append((w + (k,), hits))
    if by_residue is not None:
        violations += [(x, 0) for x, cx in zip(basis.points, cxs)
                       if min(cx) < 0]
    return DecompositionReport(box_bound=box_bound, checked_points=checked,
                               violations=tuple(violations))


def test_decomposition_matches_line_walk_oracle_on_seeded_bases():
    # every box from 1 to 5 on each basis, as walked and with each
    # tampering; n = 0 and n = 1 have no prefix coordinate
    rng = random.Random(2718)
    empty = parallelepiped_points(())
    cases = [(empty, AffineMonoid(dim=0, generators=(),
                                  positivity_functional=()),
              [empty, replace(empty, points=()),
               replace(empty, points=((), ()))])]
    for vecs, _ in random_simplicial_bases(random.Random(3141), 60):
        pb = parallelepiped_points(vecs)
        cases.append((pb, simplicial_monoid(vecs), [pb] + [
            replace(pb, points=tamper(rng, pb, kind)[1])
            for kind in TAMPERINGS]))
    seen_n, failed_n, both_ways = set(), set(), set()
    for pb, M, lists in cases:
        seen_n.add(pb.dim)
        for box in range(1, 6):
            for basis in lists:
                fast = verify_disjoint_decomposition(basis, M, box)
                assert fast == line_walk_decomposition_oracle(
                    basis, M, box), (basis, box)
                if not fast.ok:
                    failed_n.add(pb.dim)
                both_ways.add((basis is pb, fast.ok))
    assert seen_n == failed_n == {0, 1, 2, 3, 4}
    assert both_ways == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("bound", [0, -3])
def test_decomposition_rejects_non_positive_box(bound):
    pb = parallelepiped_points(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        verify_disjoint_decomposition(pb, monoid((1, 0), (0, 1)),
                                      box_bound=bound)


def test_decomposition_rejects_dependent_basis():
    bad = affine_monoids.ParallelepipedBasis(
        vectors=((1, 1), (2, 2)), points=((0, 0),), index=1)
    with pytest.raises(DependentGenerators):
        verify_disjoint_decomposition(bad, monoid((1, 1), (2, 2)),
                                      box_bound=3)


def test_parallelepiped_count_check_is_typed(monkeypatch):
    real = affine_monoids._cone_coordinates

    def wrong_index(W):
        index, coords = real(W)
        return index + 1, coords

    monkeypatch.setattr(affine_monoids, "_cone_coordinates", wrong_index)
    with pytest.raises(InconsistentParallelepiped):
        parallelepiped_points(((2, 0), (0, 3)))


def test_membership_search_is_budgeted(monkeypatch):
    # each search node past the zero and sign tests charges the budget
    # once, and the node that overdraws it raises: a count, not a clock
    M = monoid((2, 0), (0, 2), (2, 2), (4, 4))
    real = affine_monoids._member
    entered, budgets = [], []

    def counting(v, gens, phi, budget):
        entered.append(budget[0])
        budgets.append(budget)
        return real(v, gens, phi, budget)

    monkeypatch.setattr(affine_monoids, "_member", counting)

    def nodes(v):
        entered.clear()
        budgets.clear()
        try:
            return M.contains(v)
        finally:
            # every node saw the one budget list of the search
            assert all(b is budgets[0] for b in budgets)
    # the default budget, unpatched
    with pytest.raises(EnumerationOverflow):
        nodes((401, 401))
    # the whole default budget was charged, and the last node entered
    # overdrew it
    assert budgets[0] == [-1] and entered[-1] == 0
    assert not nodes((41, 41))
    charged = affine_monoids._SEARCH_BUDGET - budgets[0][0]
    assert 100 < charged < affine_monoids._SEARCH_BUDGET
    # (41, 41) is odd, so the search visits every node: a budget of
    # exactly that many nodes answers, one less raises at the last node
    monkeypatch.setattr(affine_monoids, "_SEARCH_BUDGET", charged)
    assert not nodes((41, 41))
    assert budgets[0] == [0]
    monkeypatch.setattr(affine_monoids, "_SEARCH_BUDGET", charged - 1)
    with pytest.raises(EnumerationOverflow):
        nodes((41, 41))
    assert budgets[0] == [-1] and entered[-1] == 0
    # a single generator is solved directly, however large the multiple
    assert monoid((3, 5)).contains((3 * 10 ** 12, 5 * 10 ** 12))
    assert not monoid((3, 5)).contains((3 * 10 ** 12, 5 * 10 ** 12 + 1))


# outcomes of the separate elimination that rref replaced, and the last
# case, which the sign-flipped Fourier-Motzkin combination got wrong
CONE_CASES = (
    ((1, 1), ((1, 0), (0, 1)), True),
    ((-1, 1), ((1, 0), (0, 1)), False),
    ((1, 1), ((1, 0), (2, 0)), False),            # singular, off the span
    ((3, 0), ((1, 0), (2, 0)), True),             # singular, inside
    ((-3, 0), ((1, 0), (2, 0)), False),           # singular, wrong side
    ((1, 1), ((1, 0), (0, 1), (1, 1)), True),     # underdetermined
    ((0, 1), ((1, 0), (-1, 1), (1, 1)), True),
    ((0, -1), ((1, 0), (-1, 0), (0, 1)), False),  # line plus ray
    ((5, 2), ((1, 0), (-1, 0), (0, 1)), True),
    ((1, 2, 3), ((1, 0, 0), (0, 1, 0)), False),   # inconsistent
    ((0, 0), (), True),
    ((1, 0), (), False),
    ((2, 3, 1), ((1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 0, 0)), True),
    ((0, 0, 0), ((1, 2, 3), (-1, -2, -3)), True),
    ((-1, -3), ((1, 0), (0, 0), (2, -2), (0, -1), (2, 1)), False),
)

# (members, sha256 of the 0/1 outcomes) of the sweep below
CONE_SWEEP = (
    120, "1ac9165d592815d3bcf3670592df70b434561ab5252b8cc83db580f173837f85")


def test_in_rational_cone_outcomes():
    for v, gens, expected in CONE_CASES:
        assert in_rational_cone(v, gens) is expected, (v, gens)


def test_in_rational_cone_seeded_outcomes_are_pinned():
    rng = random.Random(2024)
    bits = []
    for _ in range(400):
        n, k = rng.randint(1, 4), rng.randint(1, 5)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if rng.random() < 0.5 and k >= 2:
            gens[-1] = tuple(a + b for a, b in zip(gens[0], gens[1]))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        bits.append("1" if in_rational_cone(v, gens) else "0")
    out = "".join(bits)
    assert out.count("1") == CONE_SWEEP[0]
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_SWEEP[1]


def fm_feasible(ineqs, nvars):
    """Fourier-Motzkin feasibility of {coeffs . t + const >= 0}."""
    if nvars == 0:
        return all(c >= 0 for _, c in ineqs)
    pos, neg, rest = [], [], []
    for coeffs, const in ineqs:
        a = coeffs[0]
        tail = coeffs[1:]
        if a > 0:
            pos.append(([x / a for x in tail], const / a))
        elif a < 0:
            neg.append(([x / -a for x in tail], const / -a))
        else:
            rest.append((tail, const))
    for (pt, pc) in pos:
        for (nt, nc) in neg:
            # t >= -(pt.x + pc) and t <= nt.x + nc combine to
            # (pt + nt).x + pc + nc >= 0
            rest.append(([p + n for p, n in zip(pt, nt)], nc + pc))
    return fm_feasible(rest, nvars - 1)


def cone_oracle(v, gens):
    """The elimination in_rational_cone replaced: solve gens . lambda = v
    by rref and decide lambda >= 0 over its null space by Fourier-Motzkin
    (fm_feasible, with the sign of its combination fixed)."""
    k = len(gens)
    R, pivots = rref([[g[i] for g in gens] + [v[i]] for i in range(len(v))],
                     k)
    if any(row[k] for row in R[len(pivots):]):
        return False
    # lambda = particular + sum_f t_f null_f over the free columns f
    particular = [Fraction(0)] * k
    for row, col in zip(R, pivots):
        particular[col] = row[k]
    free = [j for j in range(k) if j not in pivots]
    if not free:
        return all(x >= 0 for x in particular)
    null = []
    for f in free:
        vec = [Fraction(0)] * k
        vec[f] = Fraction(1)
        for row, col in zip(R, pivots):
            vec[col] = -row[f]
        null.append(vec)
    ineqs = [([vec[i] for vec in null], particular[i]) for i in range(k)]
    return fm_feasible(ineqs, len(null))


def test_in_rational_cone_against_fourier_motzkin_seeded():
    # k generators in Z^n, often dependent: the null space of the
    # generator matrix, k - rank, reaches 2 and more in many draws
    rng = random.Random(4242)
    members = wide = 0
    for _ in range(2000):
        n, k = rng.randint(1, 4), rng.randint(1, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(k)]
        if k >= 3 and rng.random() < 0.5:
            gens[-1] = tuple(a - b for a, b in zip(gens[0], gens[1]))
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        expected = cone_oracle(v, gens)
        assert in_rational_cone(v, gens) is expected, (v, gens)
        members += expected
        wide += k - len(hermite_row_basis(gens)) >= 2
    for v, gens, expected in CONE_CASES:
        assert cone_oracle(v, gens) is expected, (v, gens)
    assert 400 < members < 1600 and wide > 400, (members, wide)


def test_decomposition_box_is_budgeted(monkeypatch):
    # box_bound ** n points are checked at most; a larger box is refused
    # before the loop
    pb = parallelepiped_points(((2, 0), (0, 3)))
    M = monoid((2, 0), (0, 3))
    monkeypatch.setattr(affine_monoids, "_SEARCH_BUDGET", 16)
    assert verify_disjoint_decomposition(pb, M, box_bound=4).ok
    with pytest.raises(EnumerationOverflow):
        verify_disjoint_decomposition(pb, M, box_bound=5)
