"""Finitely generated sub-semigroups of ordered block groups.

Membership is decided by exact search, block by block: generators are
grouped by the isolated level where their value sits, the leading block is
matched by a bounded knapsack (each generator is strictly positive there,
capping its coefficient), and every exact match recurses on the residual at
the next level.  This stays correct for composite valuations where a
generator's tail coordinates may be negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    AmbientMismatch,
    EnumerationOverflow,
    NegativeQuery,
    NonIncreasingTail,
    NonPositiveGenerator,
    NotASubsemigroup,
    NotInGroup,
)
from .ordered_groups import (
    GroupElement,
    ValueGroup,
    _block_sign,
    isolated_level,
)

_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class ValueSemigroup:
    """Semigroup generated by strictly positive elements of a value group."""

    ambient: ValueGroup
    generators: tuple

    def __post_init__(self):
        gens = []
        seen = set()
        for g in self.generators:
            if g.structure != self.ambient.structure:
                raise AmbientMismatch("generator outside the ambient group")
            if g.sign() <= 0:
                raise NonPositiveGenerator(
                    "semigroup generators must be strictly positive")
            if not self.ambient.contains(g):
                raise NotInGroup("generator outside the ambient value group")
            if g.flat() not in seen:
                seen.add(g.flat())
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def structure(self):
        return self.ambient.structure

    def contains(self, gamma):
        return semigroup_membership(gamma, self)


def _block_combos(comp, comps, block, budget):
    """Coefficient tuples c >= 0 with sum c_i * comps[i] == comp exactly."""
    if not comps:
        if all(x == 0 for x in comp):
            yield ()
        return
    g = comps[0]
    c = 0
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise EnumerationOverflow("membership search budget exhausted")
        rem = tuple(a - c * b for a, b in zip(comp, g))
        if _block_sign(block, rem) < 0:
            return
        for rest in _block_combos(rem, comps[1:], block, budget):
            yield (c,) + rest
        c += 1


def _search(target, gens_by_level, level, budget):
    structure = target.structure
    if level == structure.rank:
        return target.is_zero()
    block = structure.blocks[level]
    comp = target.coords[level]
    if _block_sign(block, comp) < 0:
        return False
    lgens = gens_by_level.get(level, ())
    comps = [g.coords[level] for g in lgens]
    for combo in _block_combos(comp, comps, block, budget):
        residual = target
        for c, g in zip(combo, lgens):
            if c:
                residual = residual - g.scale(c)
        if _search(residual, gens_by_level, level + 1, budget):
            return True
    return False


def semigroup_membership(gamma: GroupElement, S: ValueSemigroup) -> bool:
    """True iff gamma is a nonnegative integer combination of generators."""
    if gamma.structure != S.structure:
        raise AmbientMismatch("query outside the ambient group")
    if gamma.sign() < 0:
        raise NegativeQuery("membership queries must be nonnegative")
    if gamma.is_zero():
        return True
    gens_by_level = {}
    for g in S.generators:
        gens_by_level.setdefault(isolated_level(g), []).append(g)
    return _search(gamma, gens_by_level, 0, [_SEARCH_BUDGET])


def enumerate_elements(S: ValueSemigroup, bound):
    """All semigroup elements within the box bound, lex sorted.

    The bound is a rational box applied per block: an element qualifies when
    each of its block components has value at most the bound.  Partial sums
    are built one generator at a time, in order of level, in integers over
    a common denominator, and deduplicated.  While level-l generators are
    added, blocks below l are final and block l only grows (they are
    positive there, later ones vanish), so a sum outside the box there is
    dropped and each generator is added until block l leaves the box.  No
    cap comes from a tail, which may be negative: the result is exhaustive.
    """
    structure = S.structure
    flats = [g.flat() for g in S.generators]
    bound = Fraction(bound)
    L = math.lcm(bound.denominator,
                 *(c.denominator for v in flats for c in v))
    top = int(bound * L)
    blocks = structure.blocks
    starts = tuple(accumulate((b.rational_rank for b in blocks), initial=0))

    def in_box(p, levels):
        return all(_block_sign(blocks[b], tuple(
            (top if k == starts[b] else 0) - p[k]
            for k in range(starts[b], starts[b + 1]))) >= 0 for b in levels)

    budget = _SEARCH_BUDGET
    sums = {(0,) * starts[-1]}
    done = 0            # blocks below done are final and inside the box
    for level, g in sorted(zip(map(isolated_level, S.generators), flats)):
        sums = {p for p in sums if in_box(p, range(done, level))}
        done = level
        row = [int(c * L) for c in g]
        grown = set()
        for p in sums:
            while in_box(p, (level,)):
                budget -= 1
                if budget < 0:
                    raise EnumerationOverflow("enumeration budget exhausted")
                grown.add(p)
                p = tuple(a + x for a, x in zip(p, row))
        sums = grown
    kept = sorted(p for p in sums if in_box(p, range(done, len(blocks))))
    return tuple(structure.from_flat([Fraction(x, L) for x in p])
                 for p in kept)


def semigroup_difference(S_small: ValueSemigroup, S_big: ValueSemigroup,
                         bound):
    """Elements of S_big within the bound that are missing from S_small."""
    if S_small.structure != S_big.structure:
        raise AmbientMismatch("semigroups over different ambient groups")
    for g in S_small.generators:
        if not S_big.contains(g):
            raise NotASubsemigroup(
                "small semigroup generator outside the big semigroup")
    witnesses = []
    for el in enumerate_elements(S_big, bound):
        if not el.is_zero() and not S_small.contains(el):
            witnesses.append(el)
    return witnesses


def generating_sequence_semigroup(values) -> ValueSemigroup:
    """Semigroup of a generating sequence of values P_0, P_1, P_2, ...

    Values must be strictly positive and weakly increasing, strictly from
    the third entry on (repetitions are allowed only at the start, as with
    two parameters of equal value).
    """
    values = tuple(values)
    if not values:
        raise NonPositiveGenerator("need at least one value")
    for v in values:
        if v.sign() <= 0:
            raise NonPositiveGenerator(
                "generating sequence values must be strictly positive")
    for i in range(len(values) - 1):
        cmp = (values[i + 1] - values[i]).sign()
        if cmp < 0 or (i >= 2 and cmp == 0):
            raise NonIncreasingTail(
                f"value {i + 1} of the sequence does not increase")
    ambient = ValueGroup(values[0].structure, values)
    return ValueSemigroup(ambient=ambient, generators=values)
