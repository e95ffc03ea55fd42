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
