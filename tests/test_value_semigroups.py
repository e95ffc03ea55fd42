import random
from fractions import Fraction
from itertools import product

import pytest

from gradedval import value_semigroups
from gradedval.errors import (
    EnumerationOverflow,
    NegativeQuery,
    NonPositiveGenerator,
    NotASubsemigroup,
    NotInGroup,
)
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    ValueGroup,
    _block_sign,
    common_denominator,
    isolated_level,
    scaled_row,
    subgroup_index,
)
from gradedval.value_semigroups import (
    ValueSemigroup,
    enumerate_elements,
    semigroup_difference,
    semigroup_membership,
)

RANK1 = GroupStructure((Block(),))


def search_membership_oracle(gamma, S, budget=2_000_000):
    """Membership by exact search, block by block: the generators are
    grouped by the isolated level where their value sits, the leading block
    is matched by a bounded knapsack (each generator is strictly positive
    there, capping its coefficient), and every exact match recurses on the
    residual at the next level.  Independent of enumerate_elements."""
    budget = [budget]

    def block_combos(comp, comps, block):
        # coefficient tuples c >= 0 with sum c_i * comps[i] == comp exactly
        if not comps:
            if all(x == 0 for x in comp):
                yield ()
            return
        c = 0
        while True:
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationOverflow("oracle search budget exhausted")
            rem = tuple(a - c * b for a, b in zip(comp, comps[0]))
            if _block_sign(block, rem) < 0:
                return
            for rest in block_combos(rem, comps[1:], block):
                yield (c,) + rest
            c += 1

    def search(target, level):
        if level == target.structure.rank:
            return target.is_zero()
        block = target.structure.blocks[level]
        comp = target.coords[level]
        if _block_sign(block, comp) < 0:
            return False
        lgens = by_level.get(level, ())
        for combo in block_combos(comp, [g.coords[level] for g in lgens],
                                  block):
            residual = target
            for c, g in zip(combo, lgens):
                if c:
                    residual = residual - g.scale(c)
            if search(residual, level + 1):
                return True
        return False

    by_level = {}
    for g in S.generators:
        by_level.setdefault(isolated_level(g), []).append(g)
    return gamma.is_zero() or search(gamma, 0)


def q(x):
    return RANK1.element(((Fraction(x),),))


def rank1_semigroup(*gens):
    ambient = ValueGroup(RANK1, tuple(q(g) for g in gens))
    return ValueSemigroup(ambient=ambient, generators=tuple(q(g) for g in gens))


def test_membership_zero():
    S = rank1_semigroup(1, Fraction(5, 2))
    assert semigroup_membership(q(0), S)


def test_counterexample_value_not_in_base_semigroup():
    S = rank1_semigroup(1, Fraction(5, 2))
    assert not semigroup_membership(q(Fraction(3, 2)), S)


def test_membership_seven_halves():
    S = rank1_semigroup(1, Fraction(5, 2))
    assert semigroup_membership(q(Fraction(7, 2)), S)
    assert semigroup_membership(q(5), S)
    assert not semigroup_membership(q(Fraction(1, 2)), S)


def test_negative_query_rejected():
    S = rank1_semigroup(1)
    with pytest.raises(NegativeQuery):
        semigroup_membership(q(-1), S)


def test_membership_closed_under_addition():
    rng = random.Random(5)
    S = rank1_semigroup(2, Fraction(5, 2))
    members = [el for el in enumerate_elements(S, 20)]
    for _ in range(50):
        a, b = rng.choice(members), rng.choice(members)
        assert semigroup_membership(a + b, S)


def test_difference_identical_empty():
    S = rank1_semigroup(1, Fraction(5, 2))
    assert semigroup_difference(S, S, 10) == []


def test_difference_counterexample():
    S_small = rank1_semigroup(1, Fraction(5, 2))
    S_big = rank1_semigroup(1, Fraction(3, 2))
    witnesses = semigroup_difference(S_small, S_big, 4)
    flat = [w.flat()[0] for w in witnesses]
    assert Fraction(3, 2) in flat
    # everything the small semigroup does have stays out of the list
    assert Fraction(5, 2) not in flat
    assert 1 not in flat


def test_difference_even_vs_all():
    S_small = rank1_semigroup(2)
    S_big = rank1_semigroup(1)
    witnesses = semigroup_difference(S_small, S_big, 5)
    assert [w.flat()[0] for w in witnesses] == [1, 3, 5]


def test_difference_requires_containment():
    S_small = rank1_semigroup(Fraction(3, 2))
    S_big = rank1_semigroup(2)
    with pytest.raises(NotASubsemigroup):
        semigroup_difference(S_small, S_big, 4)


# the semigroups of generating sequences of values P_0, P_1, P_2, ...

def test_generating_sequence_basic():
    S = rank1_semigroup(1)
    assert semigroup_membership(q(7), S)
    assert not semigroup_membership(q(Fraction(1, 2)), S)


def test_generating_sequence_counterexample_values():
    S = rank1_semigroup(1, 1, Fraction(5, 2))
    assert [g.flat()[0] for g in S.generators] == [1, Fraction(5, 2)]
    assert not semigroup_membership(q(Fraction(3, 2)), S)


def test_generating_sequence_longer():
    S = rank1_semigroup(1, 1, Fraction(5, 2), Fraction(11, 2))
    assert semigroup_membership(q(Fraction(9, 2)), S)


def test_generating_sequence_rejects_nonpositive():
    with pytest.raises(NonPositiveGenerator):
        rank1_semigroup(0, 1)


def test_value_groups_of_counterexample_pair_coincide():
    small_group = ValueGroup(RANK1, (q(1), q(Fraction(5, 2))))
    big_group = ValueGroup(RANK1, (q(1), q(Fraction(3, 2)), q(Fraction(5, 2))))
    assert subgroup_index(big_group, small_group) == 1
    assert subgroup_index(small_group, big_group) == 1


def test_composite_rank_two_membership():
    structure = GroupStructure((Block(), Block()))

    def el(a, b):
        return structure.element(((Fraction(a),), (Fraction(b),)))

    ambient = ValueGroup(structure, (el(1, -1), el(0, 1)))
    S = ValueSemigroup(ambient=ambient, generators=(el(1, -1), el(0, 1)))
    # 2*(1,-1) + 2*(0,1) = (2,0): the tail goes negative before recovering
    assert semigroup_membership(el(2, 0), S)
    assert semigroup_membership(el(3, -1), S)
    assert semigroup_membership(el(0, 2), S)
    assert not semigroup_membership(el(1, -2), S)
    assert not semigroup_membership(el("1/2", 0), S)


def test_composite_rank_two_level_one_knapsack():
    structure = GroupStructure((Block(), Block()))

    def el(a, b):
        return structure.element(((Fraction(a),), (Fraction(b),)))

    gens = (el(1, 0), el(0, Fraction(3, 2)), el(0, Fraction(5, 2)))
    ambient = ValueGroup(structure, gens)
    S = ValueSemigroup(ambient=ambient, generators=gens)
    assert semigroup_membership(el(1, 4), S)
    assert not semigroup_membership(el(0, Fraction(1, 2)), S)
    assert not semigroup_membership(el(2, Fraction(7, 2)), S)


def semigroup(structure, gens):
    gens = tuple(structure.element(g) for g in gens)
    return ValueSemigroup(ambient=ValueGroup(structure, gens),
                          generators=gens)


def brute_force_elements(S, bound, caps):
    """Every sum_i c_i g_i with 0 <= c_i <= caps[i] whose block components
    all have value at most bound, as a set of flat coordinates."""
    flats = [g.flat() for g in S.generators]
    out = set()
    for coeffs in product(*[range(c + 1) for c in caps]):
        total = tuple(sum(c * f[k] for c, f in zip(coeffs, flats))
                      for k in range(len(flats[0])))
        pos, inside = 0, True
        for block in S.structure.blocks:
            comp = total[pos:pos + block.rational_rank]
            pos += block.rational_rank
            gap = (bound - comp[0],) + tuple(-x for x in comp[1:])
            inside = inside and _block_sign(block, gap) >= 0
        if inside:
            out.add(total)
    return out


def test_enumeration_reaches_past_a_negative_tail():
    # (1 | 1) = g1 + 6 g2, with 6 above g2's cap from its own block alone
    structure = GroupStructure((Block(), Block()))
    S = semigroup(structure, [((1,), (-5,)), ((0,), (1,))])
    flats = {el.flat() for el in enumerate_elements(S, 4)}
    assert (1, 1) in flats
    assert (1, -5) in flats and (0, 4) in flats and (0, 5) not in flats
    # (3 | -1) = g1 + g2 although g1 alone has its tail above the bound
    S = semigroup(structure, [((1,), (4,)), ((2,), (-5,))])
    assert (3, -1) in {el.flat() for el in enumerate_elements(S, 3)}


def test_enumeration_matches_generous_caps_on_two_block_semigroups():
    # generators are integral with leading entries >= 1 and tails in
    # [-5, 5], so inside the box the level-0 coefficients sum to at most
    # the bound, their tails to at least -5 * bound, and each level-1
    # coefficient is at most 6 * bound: generous caps
    structure = GroupStructure((Block(), Block()))
    rng = random.Random(23)
    bound = 3
    for _ in range(25):
        lead = [((rng.randint(1, 3),), (rng.randint(-5, 5),))
                for _ in range(rng.randint(1, 2))]
        tail = [((0,), (rng.randint(1, 3),))
                for _ in range(rng.randint(1, 2))]
        S = semigroup(structure, lead + tail)
        caps = [bound if g.coords[0][0] else 6 * bound
                for g in S.generators]
        got = [el.flat() for el in enumerate_elements(S, bound)]
        assert got == sorted(brute_force_elements(S, bound, caps))


def test_enumeration_matches_generous_caps_with_sqrt2_block():
    # the shape of the benchmark's two-block section: h = u - v has a
    # negative tail, the second block has weights {1, sqrt(2)}
    structure = GroupStructure((Block(), Block(quad=2)))
    u, v, w = ((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))
    h = ((1,), (-1, 0))
    small = semigroup(structure, [u, v, w])
    big = semigroup(structure, [u, v, w, h])
    got = [el.flat() for el in enumerate_elements(big, 7)]
    # v <= 7 + 7 and sqrt(2) w <= 7 + 7 inside the box
    assert got == sorted(brute_force_elements(big, 7, (7, 20, 20, 7)))
    # bottom-block caps alone found 140 of these witnesses
    assert len(semigroup_difference(small, big, 7)) == 213


def test_difference_enumerates_each_semigroup_once(monkeypatch):
    structure = GroupStructure((Block(), Block(quad=2)))
    u, v, w = ((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))
    h = ((1,), (-1, 0))
    small = semigroup(structure, [u, v, w])
    big = semigroup(structure, [u, v, w, h])
    calls = []
    real = value_semigroups.enumerate_elements

    def counting(S, bound, **kwargs):
        calls.append(S)
        return real(S, bound, **kwargs)

    monkeypatch.setattr(value_semigroups, "enumerate_elements", counting)
    witnesses = semigroup_difference(small, big, 7)
    assert calls == [big, small]
    # the witnesses of one enumeration per semigroup, filtered to the box
    members = set(real(small, 7))
    assert witnesses == [el for el in real(big, 7) if el not in members]


def test_enumeration_scale_must_clear_the_denominators():
    S = rank1_semigroup(Fraction(1, 2), Fraction(1, 3))
    assert enumerate_elements(S, 1, scale=12) == tuple(
        (int(el.flat()[0] * 12),) for el in enumerate_elements(S, 1))
    with pytest.raises(ValueError):
        enumerate_elements(S, 1, scale=4)


def reachable(gens, top):
    ok = [True] + [False] * top
    for x in range(1, top + 1):
        ok[x] = any(x >= g and ok[x - g] for g in gens)
    return ok


def test_rank1_witness_count_matches_dynamic_programming():
    # small = <4, 11>, big = <4, 3, 11> in units of 1/4, bound 28
    unit = Fraction(1, 4)
    S_small = rank1_semigroup(4 * unit, 11 * unit)
    S_big = rank1_semigroup(4 * unit, 3 * unit, 11 * unit)
    witnesses = semigroup_difference(S_small, S_big, 28)
    small, big = reachable((4, 11), 112), reachable((4, 3, 11), 112)
    expected = [Fraction(x, 4) for x in range(1, 113)
                if big[x] and not small[x]]
    assert [w.flat()[0] for w in witnesses] == expected


def test_enumeration_is_budgeted(monkeypatch):
    monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET", 10)
    with pytest.raises(EnumerationOverflow):
        enumerate_elements(rank1_semigroup(1), 20)
    assert len(enumerate_elements(rank1_semigroup(1), 8)) == 9


SQRT2 = GroupStructure((Block(), Block(quad=2)))
U, V, W = ((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))
H = ((1,), (-1, 0))             # U - V, with a negative tail


def budget_semigroup(gens):
    """Numbers generate a rank-1 semigroup, coordinate tuples one of
    SQRT2."""
    if isinstance(gens[0], tuple):
        return semigroup(SQRT2, gens)
    return rank1_semigroup(*gens)


@pytest.mark.parametrize("gens, bound, spent", [
    ((1,), 9, 10),                  # the first generator alone: 0 .. 9
    ((2, 3), 9, 17),                # 5 sums from 2, then 12 more from 3
    # 60 charged for the 21 elements, taken before runs stopped at a sum
    # already grown: then every charged sum was also built
    ((U, V, W, H), 2, 60),
])
def test_budget_is_exhausted_at_the_same_count(monkeypatch, gens, bound,
                                                spent):
    # a budget of exactly the charged run lengths suffices, one fewer
    # refuses, whether the refusal comes at the first run or a later one
    monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET", spent)
    enumerate_elements(budget_semigroup(gens), bound)
    monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET", spent - 1)
    with pytest.raises(EnumerationOverflow,
                       match="^enumeration budget exhausted$"):
        enumerate_elements(budget_semigroup(gens), bound)


@pytest.mark.parametrize("structure, gens, bound, box_tests", [
    (RANK1, [((1,),)], 10 ** 18, 0),
    # level 1: 0 passes block 0's test, and the 9 sums of the runs from
    # zero fit; the runs from 3, 6 and 9 do not
    (GroupStructure((Block(), Block())), [((0,), (3,)), ((0,), (2,))], 9,
     1),
    # the runs from zero alone are past the budget: refused before block
    # 0's test
    (GroupStructure((Block(), Block())), [((0,), (3,)), ((0,), (2,))],
     10 ** 18, 0),
    (GroupStructure((Block(quad=2),)), [((1, 0),)], 10 ** 18, 0),
    # 4 sums of level 0, then a first level-1 run of 10 sums
    (GroupStructure((Block(), Block())), [((3,), (0,)), ((0,), (1,))], 9,
     0),
])
def test_every_run_past_the_budget_is_refused_before_it_is_built(
        monkeypatch, structure, gens, bound, box_tests):
    # each run is counted in closed form and charged before it is built,
    # on rational and sqrt(d) blocks alike; a box test is made only by the
    # filter below a level, never on a run's own block
    tested = []
    real = value_semigroups._box

    def counting(structure, top):
        return tuple(lambda p, test=test: tested.append(p) or test(p)
                     for test in real(structure, top))

    monkeypatch.setattr(value_semigroups, "_box", counting)
    monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET", 10)
    with pytest.raises(EnumerationOverflow,
                       match="^enumeration budget exhausted$"):
        enumerate_elements(semigroup(structure, gens), bound)
    assert len(tested) == box_tests
    assert all(not any(p) for p in tested)


def walked_run_length(block, top, p, g, k):
    """The run p, p + g, ... walked sum by sum while the exact sign of
    top - p on the block at k is nonnegative."""
    width = block.rational_rank
    a, b = list(p[k:k + width]), g[k:k + width]
    n = 0
    while _block_sign(block, (top - a[0], *(-x for x in a[1:]))) >= 0:
        n += 1
        a = [x + y for x, y in zip(a, b)]
    return n


def test_run_length_matches_the_walk():
    rng = random.Random(29)
    norm_signs, counts = set(), set()
    for draw in range(20_000):
        block = Block(quad=rng.choice((None, 2, 3, 5, 7, 10, 13)))
        top = rng.randint(-5, 20)
        if block.quad is None:
            g = (rng.randint(-3, 3), rng.randint(1, 6))
            p = (rng.randint(-3, 3), rng.randint(-10, 25))
        else:
            g = (0, 0)
            while _block_sign(block, g) <= 0:
                g = (rng.randint(-6, 6), rng.randint(-3, 3))
            # a leading entry of another block, which the run ignores
            g = (rng.randint(-3, 3), *g)
            p = (rng.randint(-3, 3), rng.randint(-10, 25),
                 rng.randint(-6, 6))
            norm_signs.add(g[1] ** 2 > block.quad * g[2] ** 2)
        if draw % 10 == 0:          # p on the box's edge: w = 0
            p = (p[0], top, *(0,) * (len(p) - 2))
        n = value_semigroups._run_length(block.quad, top, p, g, 1)
        assert n == walked_run_length(block, top, p, g, 1), \
            (block, top, p, g)
        counts.add(min(n, 2))
    # both signs of the conjugate norm; runs of 0 (p outside), 1 and more
    assert norm_signs == {True, False} and counts == {0, 1, 2}


def assert_membership_matches_oracle(S, queries):
    for gamma in queries:
        assert semigroup_membership(gamma, S) == \
            search_membership_oracle(gamma, S), gamma.flat()


def test_membership_matches_search_on_rank1_semigroups():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(1, 4)
        S = rank1_semigroup(*(Fraction(rng.randint(1, 12), d)
                              for _ in range(rng.randint(1, 3))))
        queries = [q(Fraction(k, 2 * d)) for k in range(0, 8 * d + 1)]
        assert_membership_matches_oracle(S, queries)


def test_membership_matches_search_on_two_block_semigroups():
    # leading entries >= 1, tails in [-5, 5], as in the enumeration check
    structure = GroupStructure((Block(), Block()))
    rng = random.Random(43)
    for _ in range(25):
        lead = [((rng.randint(1, 3),), (rng.randint(-5, 5),))
                for _ in range(rng.randint(1, 2))]
        tail = [((0,), (rng.randint(1, 3),))
                for _ in range(rng.randint(1, 2))]
        S = semigroup(structure, lead + tail)
        queries = [structure.element(((a,), (Fraction(b, 2),)))
                   for a in range(0, 4) for b in range(-16, 17)
                   if a or b >= 0]
        assert_membership_matches_oracle(S, queries)


def test_membership_matches_search_with_sqrt2_block():
    # the benchmark's two-block shape; queries with a large sqrt(2) part
    # need the sqrt part of the box bound
    structure = GroupStructure((Block(), Block(quad=2)))
    u, v, w = ((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))
    h = ((1,), (-1, 0))
    queries = [structure.from_row((a, b, c), 1)
               for a in range(0, 3) for b in range(-3, 4)
               for c in range(-2, 5)]
    queries = [g for g in queries if g.sign() >= 0]
    for gens in ([u, v, w], [u, v, w, h], [h, w], [v, w]):
        assert_membership_matches_oracle(semigroup(structure, gens), queries)
    S = semigroup(structure, [w])
    assert semigroup_membership(structure.from_row((0, 0, 5), 1), S)
    assert not semigroup_membership(structure.from_row((0, 1, 5), 1), S)


def generic_box_oracle(structure, top):
    """The box test enumerate_elements ran before it took one test per
    block: the exact sign of (top, 0) - p on every block of levels."""
    blocks = structure.blocks
    starts = [0]
    for b in blocks:
        starts.append(starts[-1] + b.rational_rank)

    def in_box(p, levels):
        return all(_block_sign(blocks[b], tuple(
            (top if k == starts[b] else 0) - p[k]
            for k in range(starts[b], starts[b + 1]))) >= 0 for b in levels)

    return in_box


def test_block_box_tests_match_the_generic_sign_form():
    rng = random.Random(12)
    structures = [
        RANK1,
        GroupStructure((Block(), Block())),
        GroupStructure((Block(quad=2),)),
        GroupStructure((Block(quad=3), Block())),
        GroupStructure((Block(), Block(quad=2), Block(quad=3))),
    ]
    checked = 0
    for structure in structures:
        width = structure.rational_rank
        for _ in range(400):
            top = rng.randint(-3, 12)
            # zero components and negative tails are common
            p = tuple(rng.choice((0, 0, rng.randint(-15, 15)))
                      for _ in range(width))
            tests = value_semigroups._box(structure, top)
            oracle = generic_box_oracle(structure, top)
            assert len(tests) == structure.rank
            for b, test in enumerate(tests):
                assert test(p) == oracle(p, (b,)), (structure, top, p, b)
            assert value_semigroups._in_box(tests, p) == \
                oracle(p, range(structure.rank))
            checked += 1
    # every sign case of a sqrt(d) block is reached: both signs of each
    # component, a zero component, and both signs of p^2 - d q^2
    quad = GroupStructure((Block(quad=2),))
    tests = value_semigroups._box(quad, 5)
    oracle = generic_box_oracle(quad, 5)
    for p in product(range(-8, 9), repeat=2):
        assert tests[0](p) == oracle(p, (0,)), p
    assert checked == 2000


def test_semigroup_section_builds_only_the_lattice_it_compares(monkeypatch):
    # each section semigroup is generated by its ambient group's own
    # generators, which the group contains without a back-substitution:
    # only small's lattice is built, for groups_equal
    from functools import cached_property
    from gradedval.cli import bundled_scenario_bytes
    from gradedval.scenarios import _run_semigroup_section, load_scenario
    from gradedval.serialize import load_json
    section = load_scenario(
        load_json(bundled_scenario_bytes("section5.json"))).semigroup
    real = ValueGroup._lattice.func
    built = []

    def counting(self):
        built.append(self.generators)
        return real(self)

    lattice = cached_property(counting)
    lattice.__set_name__(ValueGroup, "_lattice")
    monkeypatch.setattr(ValueGroup, "_lattice", lattice)
    report = _run_semigroup_section(section)
    assert report["ok"] and report["groups_equal"]
    assert built == [section["small"]]
    # a generator outside a group built from other generators is still
    # refused
    built.clear()
    third = RANK1.element(((Fraction(1, 3),),))
    with pytest.raises(NotInGroup):
        ValueSemigroup(ambient=ValueGroup(RANK1, section["small"]),
                       generators=(third,))
    assert len(built) == 1


def run_everything_oracle(S, bound, L):
    """The enumeration before a run stopped at a sum already grown: every
    generator runs from every partial sum to the box edge, so a sum is
    built once for each run through it.  Returns the integer rows
    L * gamma in the box, the count of sums built, which is the budget
    enumerate_elements charges, and the count of distinct sums after each
    generator, which is what building each sum once builds."""
    structure = S.structure
    top = int(bound * L)
    box = value_semigroups._box(structure, top)
    gens = sorted((isolated_level(g), scaled_row(g, L)) for g in S.generators)
    sums = {(0,) * structure.rational_rank}
    done = built = distinct = 0
    for level, row in gens:
        below = box[done:level]
        sums = {p for p in sums if value_semigroups._in_box(below, p)}
        done = level + 1
        k, d = structure.spans[level].start, structure.blocks[level].quad
        grown = set()
        for p in sums:
            n = value_semigroups._run_length(d, top, p, row, k)
            built += n
            for _ in range(n):
                grown.add(p)
                p = tuple(a + x for a, x in zip(p, row))
        sums = grown
        distinct += len(grown)
    rest = box[done:]
    return ({p for p in sums if value_semigroups._in_box(rest, p)}, built,
            distinct)


def random_generator(rng, structure):
    """A strictly positive element: zero below a random level, positive
    on it, with tails in [-5, 5] over a denominator of 1, 2 or 3."""
    level = rng.randrange(structure.rank)
    den = rng.randint(1, 3)
    coords = []
    for b, block in enumerate(structure.blocks):
        width = block.rational_rank
        if b < level:
            comp = (0,) * width
        elif b > level:
            comp = tuple(rng.randint(-5, 5) for _ in range(width))
        elif block.quad is None:
            comp = (rng.randint(1, 4),)
        else:       # a + c sqrt(d) > 0, at least about 1/2
            comp = (0, 0)
            while _block_sign(block, (2 * comp[0] - 1, 2 * comp[1])) <= 0:
                comp = (rng.randint(-4, 4), rng.randint(-2, 2))
        coords.append(tuple(Fraction(x, den) for x in comp))
    return structure.element(coords)


def test_enumeration_matches_the_run_everything_oracle(monkeypatch):
    # the structures of test_block_box_tests_match_the_generic_sign_form;
    # the elements, their scaled rows and the budget edge all match, the
    # stopping rule cuts runs on some draws, and each sum is built once
    # per generator: one row addition, of width additions, per sum
    additions = []

    def counting_add(a, b):
        additions.append(None)
        return a + b

    monkeypatch.setattr(value_semigroups, "add", counting_add)
    budget = value_semigroups._SEARCH_BUDGET
    rng = random.Random(47)
    structures = [
        RANK1,
        GroupStructure((Block(), Block())),
        GroupStructure((Block(quad=2),)),
        GroupStructure((Block(quad=3), Block())),
        GroupStructure((Block(), Block(quad=2), Block(quad=3))),
    ]
    cut = tails = 0
    for structure in structures:
        for _ in range(40):
            gens = tuple(random_generator(rng, structure)
                         for _ in range(rng.randint(1, 3)))
            S = ValueSemigroup(ambient=ValueGroup(structure, gens),
                               generators=gens)
            bound = Fraction(rng.randint(-1, 8), rng.randint(1, 2))
            L = common_denominator(S.generators, bound)
            rows, built, distinct = run_everything_oracle(S, bound, L)
            expected = tuple(sorted(rows))
            additions.clear()
            assert enumerate_elements(S, bound, scale=L) == expected
            assert len(additions) == distinct * structure.rational_rank
            assert enumerate_elements(S, bound) == tuple(
                structure.from_row(p, L) for p in expected)
            assert enumerate_elements(S, bound, scale=3 * L) == tuple(
                sorted(run_everything_oracle(S, bound, 3 * L)[0]))
            if built:
                monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET",
                                    built)
                enumerate_elements(S, bound)
                monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET",
                                    built - 1)
                with pytest.raises(EnumerationOverflow):
                    enumerate_elements(S, bound)
                monkeypatch.setattr(value_semigroups, "_SEARCH_BUDGET",
                                    budget)
            cut += built > len(rows)
            tails += any(x < 0 for p in rows for x in p)
    assert cut > 100 and tails > 40, (cut, tails)
