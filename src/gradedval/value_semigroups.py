"""Finitely generated sub-semigroups of ordered block groups.

One algorithm decides everything: enumerate_elements lists every element
of a semigroup inside a rational box, exhaustively, also for composite
valuations where a generator's tail coordinates are negative.  Each
sum is built once: a generator's run from a sum stops at the first sum
already built, whose own run is the rest of it.  The budget still charges
every run its whole closed-form length before any of it is built, so the
stopping rule moves no refusal.  Membership is a set lookup in the sums
of a box that holds the query, and the difference of two semigroups is
the difference of their enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

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
        if type(self.ambient) is not ValueGroup:
            raise AmbientMismatch(
                f"{type(self.ambient).__name__} is not a ValueGroup")
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


def _check_semigroup(S):
    """Refuse with AmbientMismatch unless S is a ValueSemigroup, so a
    foreign value ends in no bare AttributeError."""
    if type(S) is not ValueSemigroup:
        raise AmbientMismatch(f"{type(S).__name__} is not a ValueSemigroup")


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


def _grown_rows(S: ValueSemigroup, bound, L):
    """The set of integer rows L * gamma of the elements gamma of S within
    the box bound, for a rational bound and an int L >= 1 that clears it
    and every generator: the partial sums of enumerate_elements."""
    structure = S.structure
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
            # a sum already grown got the rest of this run when it was
            # built: the run stops there
            while n and p not in grown:
                grown.add(p)
                p = tuple(map(add, p, row))
                n -= 1
        sums = grown
    rest = box[done:]
    if rest:
        sums = {p for p in sums if _in_box(rest, p)}
    return sums


def enumerate_elements(S: ValueSemigroup, bound, *, scale=None):
    """All semigroup elements within the box bound, lex sorted.

    The bound is a rational box applied per block: an element qualifies when
    each of its block components has value at most the bound.  Partial sums
    are built one generator at a time, in order of level, in integers over
    a common denominator, and deduplicated.  While level-l generators are
    added, blocks below l are final and block l only grows (they are
    positive there, later ones vanish), so a sum outside the box there is
    dropped and each generator g runs from each sum p while block l stays
    in the box: _run_length counts that run in closed form.  A run stops
    at the first sum already grown, whose own run, built with it, is the
    rest of this one, so each sum is built once.  No cap comes from a
    tail, which may be negative: the result is exhaustive.  The budget
    counts charged run lengths, not built sums: each run from each sum
    spends its whole closed-form length of _SEARCH_BUDGET, before any of
    it is built and whether or not it stops early, so the refusals do not
    depend on the stopping rule; the runs from zero, built at every
    level, are charged together before the first.

    With scale L, an int >= 1 and a multiple of the bound's and of every
    generator's denominators, the sorted integer rows L * gamma are
    returned instead of the elements gamma.
    """
    _check_semigroup(S)
    (bound,) = _check_rationals((bound,), "bound")
    L = common_denominator(S.generators, bound)
    if scale is not None:
        (scale,) = _check_ints((scale,), "scale")
        if scale < 1 or scale % L:
            raise ValueError(f"scale {scale} does not clear denominator {L}")
        L = scale
    kept = sorted(_grown_rows(S, bound, L))
    if scale is not None:
        return tuple(kept)
    return tuple(S.structure.from_row(p, L) for p in kept)


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

    Decided as a set lookup of gamma's integer row in the partial sums of
    enumerate_elements(S, _query_bound(gamma)), unsorted: gamma lies in
    that box, and the enumeration is exhaustive there.  The rows are over
    a denominator that clears gamma's too.
    """
    _check_semigroup(S)
    _check_element(gamma, S.structure, "query outside the ambient group")
    if gamma.sign() < 0:
        raise NegativeQuery("membership queries must be nonnegative")
    if gamma.is_zero():
        return True
    bound = _query_bound(gamma)
    L = common_denominator((gamma, *S.generators), bound)
    return scaled_row(gamma, L) in _grown_rows(S, bound, L)


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
    _check_semigroup(S_small)
    _check_semigroup(S_big)
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
