import math
import random
from fractions import Fraction

import pytest

from gradedval.errors import (
    AmbientMismatch,
    InfiniteIndex,
    NotASubgroup,
    NotInGroup,
    UnsupportedBlockRank,
)
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    Quotient,
    ValueGroup,
    common_denominator,
    coset_label,
    generator_rows,
    isolated_level,
    lex_compare,
    quotient_invariant_factors,
    scaled_row,
    subgroup_index,
)

RANK1 = GroupStructure((Block(),))
RANK2 = GroupStructure((Block(), Block()))
QUAD5 = GroupStructure((Block(quad=5),))


def el(structure, *coords):
    return structure.element(coords)


def test_spans_lay_out_one_flat_row():
    mixed = GroupStructure((Block(quad=2), Block(), Block(quad=3)))
    assert mixed.spans == (slice(0, 2), slice(2, 3), slice(3, 5))
    assert mixed.rational_rank == 5
    assert mixed.split((1, 2, 3, 4, 5)) == ((1, 2), (3,), (4, 5))
    gamma = mixed.from_row((0, 0, 0, 2, -1), 1)
    assert gamma.coords == ((0, 0), (0,), (2, -1))
    assert isolated_level(gamma) == 2 and gamma.sign() == 1
    assert mixed.row_sign([0, 0, 0, 1, -1]) == -1
    assert mixed.from_row((2, 4, 6, 3, 0), 4) == mixed.element(
        (("1/2", 1), ("3/2",), ("3/4", 0)))
    for coords in (((1, 2), (3,), (4,)), ((1, 2), (3,), (4, 5, 6))):
        with pytest.raises(AmbientMismatch) as info:
            mixed.element(coords)
        assert str(info.value) == "component length != block rank"


def test_block_rejects_square_weight():
    with pytest.raises(UnsupportedBlockRank):
        Block(quad=4)
    with pytest.raises(UnsupportedBlockRank):
        Block(quad=1)


def test_lex_compare_trivial():
    z = RANK2.zero()
    assert lex_compare(z, z) == 0
    a = el(RANK1, (Fraction(5, 2),))
    b = el(RANK1, (Fraction(3, 2),))
    assert lex_compare(a, b) > 0


def test_lex_first_block_dominates():
    a = el(RANK2, (0,), (1,))
    b = el(RANK2, (1,), (-100,))
    assert a < b


def test_lex_compare_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        lex_compare(RANK1.zero(), RANK2.zero())


def test_quadratic_sign_cases():
    # p + q*sqrt(5): mixed-sign cases decided by p^2 - 5 q^2
    pos = el(QUAD5, (3, -1))     # 3 - sqrt(5) > 0
    neg = el(QUAD5, (2, -1))     # 2 - sqrt(5) < 0
    pos2 = el(QUAD5, (-2, 1))    # sqrt(5) - 2 > 0
    assert pos.sign() == 1
    assert neg.sign() == -1
    assert pos2.sign() == 1


def test_quadratic_sign_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = random.Random(2024)
    for _ in range(1000):
        d = rng.choice([2, 3, 5, 7, 10])
        s = GroupStructure((Block(quad=d),))
        p = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        x = el(s, (p, q))
        approx = mp.mpf(p.numerator) / p.denominator + \
            (mp.mpf(q.numerator) / q.denominator) * mp.sqrt(d)
        expected = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert x.sign() == expected


def test_order_translation_invariant():
    rng = random.Random(9)
    s = GroupStructure((Block(quad=2), Block()))
    for _ in range(200):
        def rand_el():
            return el(s, (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                          Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
                      (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),))
        a, b, c = rand_el(), rand_el(), rand_el()
        if a < b:
            assert a + c < b + c


def test_isolated_level():
    assert isolated_level(RANK2.zero()) == 2
    assert isolated_level(el(RANK2, (0,), (5,))) == 1
    assert isolated_level(el(RANK2, (3,), (0,))) == 0


def test_isolated_chain_convexity():
    # each level of the chain of isolated subgroups is convex
    rng = random.Random(4)
    for _ in range(300):
        a = el(RANK2, (rng.randint(0, 3),), (rng.randint(-5, 5),))
        b = el(RANK2, (rng.randint(0, 3),), (rng.randint(-5, 5),))
        for level in range(3):
            if RANK2.zero() <= a <= b and isolated_level(b) >= level:
                assert isolated_level(a) >= level


def test_subgroup_index_examples():
    big = ValueGroup(RANK1, (el(RANK1, (1,)),))
    small = ValueGroup(RANK1, (el(RANK1, (2,)),))
    assert subgroup_index(big, small) == 2

    # half-integers versus integers, as in the composite rank-2 example
    half = ValueGroup(RANK1, (el(RANK1, (Fraction(1, 2),)),))
    ints = ValueGroup(RANK1, (el(RANK1, (1,)),))
    assert subgroup_index(half, ints) == 2

    two = GroupStructure((Block(quad=5),))
    big2 = ValueGroup(two, (el(two, (1, 0)), el(two, (0, 1))))
    small2 = ValueGroup(two, (el(two, (2, 0)), el(two, (0, 3))))
    assert subgroup_index(big2, small2) == 6


def test_subgroup_index_errors():
    big = ValueGroup(RANK1, (el(RANK1, (1,)),))
    small = ValueGroup(RANK1, (el(RANK1, (Fraction(1, 3),)),))
    with pytest.raises(NotASubgroup):
        subgroup_index(big, small)

    two = GroupStructure((Block(quad=5),))
    big2 = ValueGroup(two, (el(two, (1, 0)), el(two, (0, 1))))
    small2 = ValueGroup(two, (el(two, (2, 0)),))
    with pytest.raises(InfiniteIndex):
        subgroup_index(big2, small2)


def test_coset_label_examples():
    half = ValueGroup(RANK1, (el(RANK1, (Fraction(1, 2),)),))
    ints = ValueGroup(RANK1, (el(RANK1, (1,)),))
    lbl = coset_label(el(RANK1, (Fraction(3, 2),)), half, ints)
    assert lbl.flat() == (Fraction(1, 2),)
    # element of the small group gets the zero label
    assert coset_label(el(RANK1, (2,)), half, ints).is_zero()

    two = GroupStructure((Block(quad=5),))
    big2 = ValueGroup(two, (el(two, (1, 0)), el(two, (0, 1))))
    small2 = ValueGroup(two, (el(two, (2, 0)), el(two, (0, 3))))
    lbl2 = coset_label(el(two, (3, 4)), big2, small2)
    assert lbl2.flat() == (Fraction(1), Fraction(1))


def test_coset_label_partitions():
    # sampling big over a coefficient box yields exactly e distinct labels
    two = GroupStructure((Block(quad=2),))
    big = ValueGroup(two, (el(two, (1, 0)), el(two, (0, 1))))
    small = ValueGroup(two, (el(two, (2, 1)), el(two, (0, 2))))
    e = subgroup_index(big, small)
    labels = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            lbl = coset_label(el(two, (a, b)), big, small)
            labels.add(lbl.flat())
    assert len(labels) == e
    # labels agree exactly with membership of differences
    for a in range(-2, 3):
        for b in range(-2, 3):
            x = el(two, (a, b))
            y = el(two, (a + 2, b + 1))
            same = coset_label(x, big, small).flat() == \
                coset_label(y, big, small).flat()
            assert same == small.contains(y - x)


def test_coset_label_independent_of_presentation():
    # one lattice, presented by its generators and by its Hermite basis
    three = GroupStructure((Block(), Block(), Block()))
    rows = [(1, 7, 4), (7, -3, 0), (0, 9, 6)]

    def group(vectors):
        return ValueGroup(three, tuple(
            el(three, *((x,) for x in v)) for v in vectors))

    small = group([tuple(2 * x for x in r) for r in rows])
    a = group(rows)
    b = group([(1, 0, 6), (0, 1, 34), (0, 0, 60)])
    for k in [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (3, -2, 5)]:
        gamma = el(three, *(
            (sum(c * r[j] for c, r in zip(k, rows)),) for j in range(3)))
        assert coset_label(gamma, a, small) == coset_label(gamma, b, small)


def test_quotient_invariant_factors():
    two = GroupStructure((Block(quad=5),))
    big = ValueGroup(two, (el(two, (1, 0)), el(two, (0, 1))))
    small = ValueGroup(two, (el(two, (2, 0)), el(two, (0, 2))))
    assert quotient_invariant_factors(big, small) == (2, 2)


def test_basis_from_redundant_generators():
    g = ValueGroup(RANK1, (el(RANK1, (1,)), el(RANK1, (Fraction(5, 2),))))
    # the generated group is (1/2) Z
    assert subgroup_index(
        g, ValueGroup(RANK1, (el(RANK1, (Fraction(1, 2),)),))) == 1


def test_coordinates_of_generators_and_outsiders():
    s = RANK2
    g = ValueGroup(s, (s.element(((Fraction(1, 2),), (1,))),
                       s.element(((0,), (3,)))))
    assert g.contains(s.element(((1,), (5,))))
    assert not g.contains(s.element(((1,), (4,))))
    assert not g.contains(s.element(((Fraction(1, 3),), (0,))))
    assert g.coordinates(s.zero()) == (0, 0)
    empty = ValueGroup(s, ())
    assert empty.coordinates(s.zero()) == ()
    assert not empty.contains(s.element(((1,), (0,))))


def test_quotient_errors_match_wrappers():
    s = RANK1
    one = ValueGroup(s, (s.element(((1,),)),))
    third = ValueGroup(s, (s.element(((Fraction(1, 3),),)),))
    with pytest.raises(NotASubgroup):
        generator_rows(one, third)
    q = Quotient(third, generator_rows(third, one))
    assert q.index == 3
    with pytest.raises(NotInGroup):
        q.label(s.element(((Fraction(1, 2),),)))
    two = RANK2
    full = ValueGroup(two, (two.element(((1,), (0,))),
                            two.element(((0,), (1,)))))
    line = ValueGroup(two, (two.element(((1,), (0,))),))
    with pytest.raises(InfiniteIndex):
        Quotient(full, generator_rows(full, line))


def test_generator_rows_only_scales(monkeypatch):
    # Quotient is the one test that small lies in big: generator_rows
    # back-substitutes nothing through big's basis, and returns the row
    # (1, 0) of a generator outside big = <(2, 0), (0, 1)> unchanged
    calls = []
    monkeypatch.setattr(ValueGroup, "coordinates",
                        lambda self, gamma: calls.append(gamma))
    monkeypatch.setattr(ValueGroup, "row_coordinates",
                        lambda self, row: calls.append(row))
    big = ValueGroup(RANK2, (el(RANK2, (2,), (0,)), el(RANK2, (0,), (1,))))
    small = ValueGroup(RANK2, (el(RANK2, (1,), (0,)),
                               el(RANK2, (0,), (Fraction(3),))))
    assert generator_rows(big, small) == [(1, 0), (0, 3)]
    assert calls == []


def test_label_does_not_depend_on_big():
    # small = <(3, 3), (0, 2)>, the values of x of the `cosets` example
    # A = diag(3, 1), y-values (1, 1) and (0, 2).  A label is the value
    # row reduced through small's Hermite rows, so every big holding small
    # gives the same labels; labels reduced in big's coordinates were
    # (2, 2) for (2, 0) over big = <(1, 1), (0, 2)> and (2, 0) over Z^2
    s = RANK2
    small = ValueGroup(s, (el(s, (3,), (3,)), el(s, (0,), (2,))))
    bigs = [ValueGroup(s, gens) for gens in (
        (el(s, (1,), (1,)), el(s, (0,), (2,))),
        (el(s, (1,), (0,)), el(s, (0,), (1,))),
        (el(s, (Fraction(1, 2),), (Fraction(1, 2),)), el(s, (0,), (1,))))]
    quotients = [Quotient(big, generator_rows(big, small)) for big in bigs]
    assert [q.index for q in quotients] == [3, 6, 12]
    points = [el(s, (a,), (a + 2 * b,))
              for a in range(-3, 4) for b in range(-3, 4)]
    for p in points:
        first, *rest = (q.label(p) for q in quotients)
        assert all(label == first for label in rest)
        assert small.contains(first - p)
    assert quotients[0].label(el(s, (2,), (0,))) == el(s, (2,), (0,))
    assert quotients[0].label(el(s, (5,), (5,))) == el(s, (2,), (0,))
    # the rows (2, 2) and (5, 5), as their columns, reduce to (2, 0) each
    assert quotients[0].label_columns([(2, 5), (2, 5)]) == [[2, 2], [0, 0]]


def _oracle_sign(structure, flat):
    """The lex sign of a Fraction tuple, block by block: p + q sqrt(d)
    has the sign of p and q when they agree, else of the larger of p^2
    and d q^2."""
    for block, span in zip(structure.blocks, structure.spans):
        p, q = (*flat[span], 0)[:2]
        if p and q and (p > 0) != (q > 0):
            s = p if p * p > block.quad * q * q else q
        else:
            s = p or q
        if s:
            return 1 if s > 0 else -1
    return 0


def _oracle_level(structure, flat):
    return next((level for level, span in enumerate(structure.spans)
                 if any(flat[span])), structure.rank)


def test_elements_are_integer_rows_in_lowest_terms():
    # an element is its integer row over the least L that clears it, so
    # every way of making it gives one dataclass, with one hash; its
    # arithmetic, order and flat() agree with the Fraction-tuple
    # arithmetic kept here as the oracle
    rng = random.Random(29)
    structure = GroupStructure((Block(), Block(quad=2)))

    def draw():
        size = rng.choice((1, 9, 10 ** 6, 10 ** 40))
        return tuple(Fraction(rng.randint(-size, size),
                              rng.choice((1, rng.randint(1, size))))
                     for _ in range(structure.rational_rank))

    def check(g, flat):
        assert g.L > 0 and math.gcd(g.L, *g.row) == 1
        assert g.flat() == flat
        assert all(type(c) is Fraction for c in g.flat())
        assert g.coords == structure.split(flat)
        assert g == structure.element(structure.split(flat))
        assert g.sign() == _oracle_sign(structure, flat)
        assert isolated_level(g) == _oracle_level(structure, flat)

    for _ in range(400):
        fa, fb = draw(), rng.choice((draw(), draw(), None))
        fb = fb or fa  # now and then a - b is zero
        a = structure.element(structure.split(fa))
        b = structure.element(structure.split(fb))
        k = rng.choice((1, 2, rng.randint(1, 10 ** 12)))
        for same in (structure.from_row([k * x for x in a.row], k * a.L),
                     a + b - b, -(-a), a.scale(1)):
            assert same == a and hash(same) == hash(a)
            assert (same.L, same.row) == (a.L, a.row)
        check(a, fa)
        check(a + b, tuple(x + y for x, y in zip(fa, fb)))
        check(a - b, tuple(x - y for x, y in zip(fa, fb)))
        check(-a, tuple(-x for x in fa))
        c = rng.choice((0, -1, rng.randint(-99, 99), draw()[0]))
        check(a.scale(c), tuple(c * x for x in fa))
        diff = _oracle_sign(structure, tuple(x - y for x, y in zip(fa, fb)))
        assert ((a < b), (a <= b), lex_compare(a, b)) == (
            diff < 0, diff <= 0, diff)
    zero = structure.zero()
    assert (zero.L, zero.row) == (1, (0, 0, 0))
    check(zero, (0, 0, 0))


def test_scaled_rows_match_fraction_products():
    # the one scaling of group values to integer rows, against L * c in
    # Fractions; and the group's own denominator makes row_coordinates
    # agree with coordinates
    rng = random.Random(23)
    structure = GroupStructure((Block(), Block(quad=2)))
    for _ in range(200):
        elements = [structure.element(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))],
             [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              for _ in range(2)]]) for _ in range(rng.randint(1, 3))]
        bound = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        L = common_denominator(elements, bound)
        flats = [c for g in elements for c in g.flat()] + [bound]
        assert all((c * L).denominator == 1 for c in flats)
        assert all(any((c * (L // p)).denominator != 1 for c in flats)
                   for p in (2, 3, 5) if L % p == 0)
        for g in elements:
            assert scaled_row(g, L) == tuple(int(c * L) for c in g.flat())
            if any((c * 7).denominator != 1 for c in g.flat()):
                assert scaled_row(g, 7) is None
        group = ValueGroup(structure, elements)
        own = common_denominator(elements)
        for g in elements:
            assert group.row_coordinates(scaled_row(g, own)) == \
                group.coordinates(g)
