"""Finitely generated totally ordered abelian groups of finite rank.

Groups are presented as block groups ordered lexicographically across blocks
(earlier block dominates).  Each archimedean block carries a weight basis,
either {1} or {1, sqrt(d)} for a positive non-square integer d, so sign
determination inside a block is an exact case analysis; rational rank >= 3
inside a single block is not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import floordiv, mod, mul, sub

from .errors import (
    AmbientMismatch,
    InfiniteIndex,
    NotASubgroup,
    NotInGroup,
    UnsupportedBlockRank,
)
from .exact_lattice import (
    ExactMatrix,
    _check_ints,
    _check_rationals,
    hermite_row_basis,
    quotient_invariants,
)


@dataclass(frozen=True)
class Block:
    """Weight basis of one archimedean block: {1} or {1, sqrt(quad)}."""

    quad: int | None = None

    def __post_init__(self):
        q = self.quad
        if q is not None:
            _check_ints((q,), "quad")
            if q <= 1 or math.isqrt(q) ** 2 == q:
                raise UnsupportedBlockRank(
                    f"sqrt({q}) is not a quadratic irrational weight")

    @property
    def rational_rank(self):
        return 1 if self.quad is None else 2


@dataclass(frozen=True)
class GroupStructure:
    """Ambient block/rank data: the lex order is fixed by the block list.
    A value is one flat row, block after block, laid out by spans."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def rank(self):
        return len(self.blocks)

    @cached_property
    def spans(self):
        """The slice of a flat row that each block occupies, in order."""
        ends = (0, *accumulate(b.rational_rank for b in self.blocks))
        return tuple(map(slice, ends, ends[1:]))

    @cached_property
    def rational_rank(self):
        return sum(b.rational_rank for b in self.blocks)

    def split(self, flat):
        """The per-block pieces of a flat row (tuples for a tuple)."""
        return tuple(flat[span] for span in self.spans)

    def zero(self):
        return GroupElement(self, 1, (0,) * self.rational_rank)

    def element(self, coords):
        """The element whose per-block coordinates are coords, each an
        int, a Fraction or a str (_check_rationals)."""
        comps = [_check_rationals(comp, "coordinate") for comp in coords]
        if len(comps) != self.rank:
            raise AmbientMismatch("coordinate blocks != structure blocks")
        if any(len(c) != b.rational_rank for c, b in zip(comps, self.blocks)):
            raise AmbientMismatch("component length != block rank")
        flat = tuple(chain.from_iterable(comps))
        L = math.lcm(*(c.denominator for c in flat))
        return GroupElement(self, L, tuple(
            c.numerator * (L // c.denominator) for c in flat))

    def from_row(self, row, L):
        """The element whose flat coordinates are the integers row over
        L, exactly an int >= 1, brought to lowest terms."""
        if type(L) is not int or L < 1:
            (L,) = _check_ints((L,), "denominator")
            raise ValueError(f"denominator {L} is not positive")
        g = math.gcd(L, *row)
        if g != 1:
            L, row = L // g, [x // g for x in row]
        return GroupElement(self, L, tuple(row))

    def row_sign(self, row):
        """The sign of a flat row (of from_row(row, L) for any L > 0): that
        of its first nonzero block, the earlier block dominating."""
        for block, span in zip(self.blocks, self.spans):
            s = _block_sign(block, row[span])
            if s:
                return s
        return 0

    def row_level(self, row):
        """The isolated level of a flat row (of from_row(row, L) for any
        L > 0): the number of its leading blocks that vanish."""
        return next((level for level, span in enumerate(self.spans)
                     if any(row[span])), self.rank)


def _block_sign(block: Block, comp):
    """Exact sign of sum(comp[i] * weight[i]) within one block."""
    if block.quad is None:
        p = comp[0]
        return (p > 0) - (p < 0)
    p, q = comp
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    s = 1 if p > 0 else -1
    t = p * p - block.quad * q * q
    # t = 0 would force sqrt(quad) rational; quad is a non-square
    return s if t > 0 else -s


@dataclass(frozen=True)
class GroupElement:
    """Element of a block group: its flat coordinates, block after block,
    as the integer row over the least L > 0 that clears them.  So
    gcd(L, *row) == 1, and equal elements are equal dataclasses.  Made by
    its structure; > and >= reflect to < and <=."""

    structure: GroupStructure
    L: int
    row: tuple

    @property
    def coords(self):
        """Per-block coordinate tuples, as Fractions."""
        return self.structure.split(self.flat())

    def sign(self):
        return self.structure.row_sign(self.row)

    def is_zero(self):
        return not any(self.row)

    def flat(self):
        """Coordinates concatenated across blocks, as Fractions."""
        L = self.L
        return tuple(Fraction(x, L) for x in self.row)

    def _check_same(self, other):
        _check_element(other, self.structure,
                       "elements of different ambient groups")

    def _plus(self, other, k):
        """self + k * other, for an int k, over the lcm of the two L's."""
        self._check_same(other)
        L = math.lcm(self.L, other.L)
        s, t = L // self.L, k * (L // other.L)
        return self.structure.from_row(
            [s * a + t * b for a, b in zip(self.row, other.row)], L)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return GroupElement(self.structure, self.L,
                            tuple(-a for a in self.row))

    def scale(self, k):
        """k * self, for k an int, a Fraction or a str."""
        (k,) = _check_rationals((k,), "scale factor")
        return self.structure.from_row(
            [k.numerator * a for a in self.row], self.L * k.denominator)

    def __lt__(self, other):
        return lex_compare(self, other) < 0

    def __le__(self, other):
        return lex_compare(self, other) <= 0


def _check_element(gamma, structure, message):
    """Refuse with AmbientMismatch(message) unless gamma is a GroupElement
    of structure, so a foreign value ends in no bare AttributeError."""
    if type(gamma) is not GroupElement or gamma.structure != structure:
        raise AmbientMismatch(message)


def lex_compare(a: GroupElement, b: GroupElement):
    """Exact three-way comparison; earlier blocks dominate."""
    a._check_same(b)
    return (a - b).sign()


def isolated_level(gamma: GroupElement):
    """Largest i such that the first i blocks of gamma vanish (r for zero).

    Level i is the convex subgroup of elements whose first i blocks vanish;
    level 0 is the whole group and level rank is zero.
    """
    # of any structure: a GroupElement passes on its own
    _check_element(gamma, getattr(gamma, "structure", None),
                   "not a group element")
    return gamma.structure.row_level(gamma.row)


def common_denominator(elements, *rationals):
    """The least L > 0 that clears the denominator of every flat
    coordinate of the elements and of every extra rational."""
    return math.lcm(*(el.L for el in elements),
                    *(q.denominator for q in rationals))


def scaled_row(gamma: GroupElement, L):
    """The integers L * gamma.flat(), or None when L is no multiple of
    gamma's own L.  With common_denominator, the one way a group value
    becomes an integer row over a denominator of the caller's."""
    k, r = divmod(L, gamma.L)
    if r:
        return None
    return gamma.row if k == 1 else tuple(k * x for x in gamma.row)


@dataclass(frozen=True)
class ValueGroup:
    """Finitely generated subgroup of a block group, given by generators."""

    structure: GroupStructure
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            _check_element(g, self.structure,
                           "generator outside the ambient group")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def _lattice(self):
        """(scale L, HNF basis rows, pivot columns): the group is
        (1/L) * row-lattice(basis).  Computed once per group."""
        L = common_denominator(self.generators)
        basis = hermite_row_basis([scaled_row(g, L) for g in self.generators])
        return L, basis, _pivot_columns(basis)

    @property
    def rational_rank(self):
        return len(self._lattice[1])

    def coordinates(self, gamma: GroupElement):
        """Integer coordinates of gamma in the lattice basis, else None."""
        _check_element(gamma, self.structure,
                       "element outside the ambient group")
        row = scaled_row(gamma, self._lattice[0])
        return None if row is None else self.row_coordinates(row)

    def row_coordinates(self, row):
        """Integer coordinates of row / L in the lattice basis, else None,
        for an integer row over the group's denominator L.

        Back-substitution along the echelon pivots of the Hermite basis;
        the residual left over must vanish, which is x * basis == row.
        """
        _, basis, pivots = self._lattice
        residual = list(row)
        x = []
        for brow, p in zip(basis, pivots):
            q, r = divmod(residual[p], brow[p])
            if r:
                return None
            if q:
                for j in range(p, len(brow)):
                    residual[j] -= q * brow[j]
            x.append(q)
        if any(residual):
            return None
        return tuple(x)

    def contains(self, gamma: GroupElement):
        return self.coordinates(gamma) is not None


def _pivot_columns(echelon_rows):
    return tuple(next(j for j, x in enumerate(row) if x)
                 for row in echelon_rows)


def generator_rows(big: ValueGroup, small: ValueGroup):
    """The integer rows L * g of small's generators g, L big's
    denominator: the rows a Quotient of big by small is built from.

    Raises AmbientMismatch for groups over different ambient structures
    and NotASubgroup for a generator whose denominator L does not clear;
    Quotient alone tests whether an integer row lies in big.
    """
    if big.structure != small.structure:
        raise AmbientMismatch("groups over different ambient structures")
    rows = [scaled_row(g, big._lattice[0]) for g in small.generators]
    if None in rows:
        raise NotASubgroup("small group outside big group")
    return rows


class Quotient:
    """The finite quotient big/small of two value groups, built once.

    Built from big and rows, the integer rows L * g, L big's denominator,
    of a generating set of small (generator_rows computes them; a caller
    that knows them by construction passes them straight).  Holds the
    Hermite basis H of L * small and its pivot columns.  H is canonical,
    and a coset label is one reduction through H (Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, section 2.4).  H must
    lie in big, the one test of small in big (NotASubgroup, at any rank),
    and then have big's rank (InfiniteIndex); so H and big's basis are
    echelon on the same pivot columns: H's coordinates in big's basis
    form an upper triangular matrix, whose diagonal multiplies to
    [big : small] and whose invariant factors are those of big/small.
    """

    def __init__(self, big: ValueGroup, rows):
        self.big = big
        self.hnf = hermite_row_basis(rows)
        inclusion = [big.row_coordinates(row) for row in self.hnf]
        if None in inclusion:
            raise NotASubgroup("small group outside big group")
        if len(self.hnf) < big.rational_rank:
            raise InfiniteIndex("rational spans differ")
        self._inclusion = inclusion
        self.pivots = _pivot_columns(self.hnf)
        self.index = math.prod(row[i] for i, row in enumerate(inclusion))

    @cached_property
    def invariant_factors(self):
        """Invariant factors (> 1) of big/small."""
        # square, as the index is finite; checked: from the caller's rows
        return quotient_invariants(ExactMatrix.from_rows(self._inclusion))

    @property
    def denominator(self):
        """L with big = (1/L) * row-lattice of its Hermite basis."""
        return self.big._lattice[0]

    def label_columns(self, columns):
        """L * the canonical representatives of the cosets of v / L, for
        integer rows v that lie in L * big, L = denominator, given and
        returned as their columns: one integer sequence per coordinate,
        entry i of each from row i.

        Each row is reduced through H to the unique representative whose
        entry at each pivot column lies in [0, pivot), one Hermite row at
        a time over the whole columns: with q = v_p // h_p at the pivot
        column p, column j loses q h_j for each nonzero h_j past p, and
        column p becomes v_p mod h_p.  Scaling v, H and L together does
        not change the representative, so it does not depend on big.
        """
        columns = list(columns)
        for row, p in zip(self.hnf, self.pivots):
            h, column = row[p], columns[p]
            rest = [(j, row[j]) for j in range(p + 1, len(row)) if row[j]]
            if rest:
                q = list(map(floordiv, column, repeat(h)))
                for j, c in rest:
                    columns[j] = list(map(
                        sub, columns[j], map(mul, q, repeat(c))))
            columns[p] = list(map(mod, column, repeat(h)))
        return columns

    def label(self, gamma: GroupElement):
        """Canonical representative of gamma + small inside big.

        Two elements receive equal labels iff their difference lies in
        small.
        """
        if self.big.coordinates(gamma) is None:
            raise NotInGroup("element outside the big group")
        L = self.denominator
        columns = self.label_columns([a] for a in scaled_row(gamma, L))
        return self.big.structure.from_row(
            tuple(column[0] for column in columns), L)


def subgroup_index(big: ValueGroup, small: ValueGroup):
    """e = [big : small] for subgroups spanning the same rational space."""
    return Quotient(big, generator_rows(big, small)).index


def quotient_invariant_factors(big: ValueGroup, small: ValueGroup):
    """Invariant factors (> 1) of big/small."""
    return Quotient(big, generator_rows(big, small)).invariant_factors


def coset_label(gamma: GroupElement, big: ValueGroup, small: ValueGroup):
    """Canonical representative of gamma + small inside big."""
    return Quotient(big, generator_rows(big, small)).label(gamma)
