"""Finitely generated sub-semigroups of ordered block groups.

One algorithm decides everything: enumerate_elements lists every element
of a semigroup inside a rational box, exhaustively, also for composite
valuations where a generator's tail coordinates are negative.  Membership
is a lookup in the enumeration of a box that holds the query, and the
difference of two semigroups is the difference of their enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbientMismatch,
    EnumerationOverflow,
    NegativeQuery,
    NonPositiveGenerator,
    NotASubsemigroup,
    NotInGroup,
)
from .exact_lattice import _check_ints, _check_rationals
from .ordered_groups import (
    GroupElement,
    ValueGroup,
    _block_sign,
    _check_element,
    common_denominator,
    isolated_level,
    scaled_row,
)

_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class ValueSemigroup:
    """Semigroup generated by strictly positive elements of a value group."""

    ambient: ValueGroup
    generators: tuple

    def __post_init__(self):
        gens = tuple(dict.fromkeys(self.generators))  # equal ones once
        for g in gens:
            _check_element(g, self.ambient.structure,
                           "generator outside the ambient group")
            if g.sign() <= 0:
                raise NonPositiveGenerator(
                    "semigroup generators must be strictly positive")
            if not (g in self.ambient.generators  # a group holds its own
                    or self.ambient.contains(g)):
                raise NotInGroup("generator outside the ambient value group")
        object.__setattr__(self, "generators", gens)

    @property
    def structure(self):
        return self.ambient.structure


def _box(structure, top):
    """One test per block b of an integer row p: block b has value at most
    top, the bound times the row's denominator.  A rational block is the
    integer comparison p[k] <= top; a sqrt(d) block is the exact sign of
    its 2-tuple top - p."""
    tests = []
    for block, span in zip(structure.blocks, structure.spans):
        if block.quad is None:
            tests.append(lambda p, k=span.start: p[k] <= top)
        else:
            tests.append(lambda p, k=span.start, block=block: _block_sign(
                block, (top - p[k], -p[k + 1])) >= 0)
    return tuple(tests)


def _in_box(tests, p):
    return all(test(p) for test in tests)


def _run_length(d, top, p, g, k):
    """How many of p, p + g, p + 2g, ... have block value at most top, on
    the block at k (sqrt(d), or rational when d is None) where g > 0:
    floor(w) + 1, or 0, for w = (top - p) / g.  On a sqrt(d) block w is
    (a + b sqrt d)(c - e sqrt d) / (c^2 - d e^2), a norm never 0 as d is
    not a square, and floor(y sqrt d) is isqrt(d y^2), less 1 if y < 0."""
    if d is None:
        return max((top - p[k]) // g[k] + 1, 0)
    a, b, c, e = top - p[k], -p[k + 1], g[k], g[k + 1]
    norm, x, y = c * c - d * e * e, a * c - b * e * d, b * c - a * e
    if norm < 0:
        norm, x, y = -norm, -x, -y
    r = math.isqrt(d * y * y)
    return max((x + (r if y >= 0 else -r - 1)) // norm + 1, 0)


def enumerate_elements(S: ValueSemigroup, bound, *, scale=None):
    """All semigroup elements within the box bound, lex sorted.

    The bound is a rational box applied per block: an element qualifies when
    each of its block components has value at most the bound.  Partial sums
    are built one generator at a time, in order of level, in integers over
    a common denominator, and deduplicated.  While level-l generators are
    added, blocks below l are final and block l only grows (they are
    positive there, later ones vanish), so a sum outside the box there is
    dropped and each generator g runs from each sum p while block l stays
    in the box: _run_length counts that run in closed form.  No cap comes
    from a tail, which may be negative: the result is exhaustive.  Every
    sum spends one unit of _SEARCH_BUDGET, charged for a whole run before
    any of it is built; the runs from zero, built at every level, are
    charged together before the first.

    With scale L, an int >= 1 and a multiple of the bound's and of every
    generator's denominators, the sorted integer rows L * gamma are
    returned instead of the elements gamma.
    """
    structure = S.structure
    (bound,) = _check_rationals((bound,), "bound")
    L = common_denominator(S.generators, bound)
    if scale is not None:
        (scale,) = _check_ints((scale,), "scale")
        if scale < 1 or scale % L:
            raise ValueError(f"scale {scale} does not clear denominator {L}")
        L = scale
    top = int(bound * L)
    box = _box(structure, top)
    gens = [(level, row, structure.spans[level].start,
             structure.blocks[level].quad) for level, row in sorted(
                 (isolated_level(g), scaled_row(g, L)) for g in S.generators)]
    zero = (0,) * structure.rational_rank
    # zero survives every level when top >= 0 (else every run is empty),
    # so its runs are charged in any case: refuse them before any is built
    if sum(_run_length(d, top, zero, row, k)
           for _, row, k, d in gens) > _SEARCH_BUDGET:
        raise EnumerationOverflow("enumeration budget exhausted")
    budget = _SEARCH_BUDGET
    sums = {zero}
    done = 0            # blocks below done are final and inside the box
    for level, row, k, d in gens:
        if level > done:
            below = box[done:level]
            sums = {p for p in sums if _in_box(below, p)}
        done = level + 1
        grown = set()
        for p in sums:
            n = _run_length(d, top, p, row, k)
            budget -= n
            if budget < 0:
                raise EnumerationOverflow("enumeration budget exhausted")
            for _ in range(n):
                grown.add(p)
                p = tuple(a + x for a, x in zip(p, row))
        sums = grown
    rest = box[done:]
    kept = sorted(p for p in sums if _in_box(rest, p))
    if scale is not None:
        return tuple(kept)
    return tuple(structure.from_row(p, L) for p in kept)


def _query_bound(gamma: GroupElement):
    """A rational upper bound on every block value of gamma: a box in
    which enumerate_elements decides gamma's membership."""
    row = gamma.row
    return Fraction(max(
        row[span.start] if block.quad is None
        else row[span.start] + abs(row[span.start + 1]) * (
            math.isqrt(block.quad) + 1)
        for block, span in zip(gamma.structure.blocks,
                               gamma.structure.spans)), gamma.L)


def semigroup_membership(gamma: GroupElement, S: ValueSemigroup) -> bool:
    """True iff gamma is a nonnegative integer combination of generators.

    Decided as gamma in enumerate_elements(S, _query_bound(gamma)): gamma
    lies in that box, and the enumeration is exhaustive there.  The lookup
    is on integer rows over a denominator that clears gamma's too.
    """
    if gamma.structure != S.structure:
        raise AmbientMismatch("query outside the ambient group")
    if gamma.sign() < 0:
        raise NegativeQuery("membership queries must be nonnegative")
    if gamma.is_zero():
        return True
    bound = _query_bound(gamma)
    L = common_denominator((gamma, *S.generators), bound)
    return scaled_row(gamma, L) in enumerate_elements(S, bound, scale=L)


def semigroup_difference(S_small: ValueSemigroup, S_big: ValueSemigroup,
                         bound):
    """Elements of S_big within the bound that are missing from S_small.

    Both enumerations are exhaustive in their boxes, so this is a set
    difference, in the lex order of the big one.  S_big is enumerated
    once, at the larger of the bound and the small generators' largest
    query bound: the small generators are looked up in all of it, the
    difference is taken in the bound's box.  Elements are built only for
    the witnesses.
    """
    if S_small.structure != S_big.structure:
        raise AmbientMismatch("semigroups over different ambient groups")
    structure = S_big.structure
    (bound,) = _check_rationals((bound,), "bound")
    reach = max([bound, *map(_query_bound, S_small.generators)])
    L = common_denominator(S_small.generators + S_big.generators, bound,
                           reach)
    big = enumerate_elements(S_big, reach, scale=L)
    if not set(big).issuperset(scaled_row(g, L)
                               for g in S_small.generators):
        raise NotASubsemigroup(
            "small semigroup generator outside the big semigroup")
    small = set(enumerate_elements(S_small, bound, scale=L))
    box = _box(structure, int(bound * L))
    return [structure.from_row(p, L) for p in big
            if p not in small and _in_box(box, p)]
