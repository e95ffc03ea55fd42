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
from functools import cache, cached_property
from itertools import accumulate, chain

from .errors import (
    AmbientMismatch,
    InfiniteIndex,
    NotASubgroup,
    NotInGroup,
    UnsupportedBlockRank,
)
from .exact_lattice import (
    ExactMatrix,
    hermite_row_basis,
    smith_normal_form,
)


@dataclass(frozen=True)
class Block:
    """Weight basis of one archimedean block: {1} or {1, sqrt(quad)}."""

    quad: int | None = None

    def __post_init__(self):
        if self.quad is not None:
            q = int(self.quad)
            if q <= 1 or math.isqrt(q) ** 2 == q:
                raise UnsupportedBlockRank(
                    f"sqrt({q}) is not a quadratic irrational weight")
            object.__setattr__(self, "quad", q)

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
        return GroupElement(self, (Fraction(0),) * self.rational_rank)

    def element(self, coords):
        """The element whose per-block coordinates are coords."""
        comps = [tuple(map(Fraction, comp)) for comp in coords]
        if len(comps) != self.rank:
            raise AmbientMismatch("coordinate blocks != structure blocks")
        if any(len(c) != b.rational_rank for c, b in zip(comps, self.blocks)):
            raise AmbientMismatch("component length != block rank")
        return GroupElement(self, tuple(chain.from_iterable(comps)))

    def from_flat(self, flat):
        """The element whose block coordinates, concatenated, are flat."""
        flat = tuple(map(Fraction, flat))
        if len(flat) != self.rational_rank:
            raise AmbientMismatch("component length != block rank")
        return GroupElement(self, flat)

    def from_row(self, row, L):
        """The element whose flat coordinates are the integers row over L."""
        return GroupElement(self, tuple(Fraction(x, L) for x in row))

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
    """Element of a block group: one flat tuple of Fraction coordinates,
    made by its structure; > and >= reflect to < and <=."""

    structure: GroupStructure
    _flat: tuple

    @property
    def coords(self):
        """Per-block coordinate tuples."""
        return self.structure.split(self._flat)

    def sign(self):
        return self.structure.row_sign(self._flat)

    def is_zero(self):
        return not any(self._flat)

    def flat(self):
        """Coordinates concatenated across blocks, as a rational vector."""
        return self._flat

    def _check_same(self, other):
        if self.structure != other.structure:
            raise AmbientMismatch("elements of different ambient groups")

    def __add__(self, other):
        self._check_same(other)
        return GroupElement(self.structure, tuple(
            a + b for a, b in zip(self._flat, other._flat)))

    def __sub__(self, other):
        self._check_same(other)
        return GroupElement(self.structure, tuple(
            a - b for a, b in zip(self._flat, other._flat)))

    def __neg__(self):
        return GroupElement(self.structure, tuple(-a for a in self._flat))

    def scale(self, k):
        k = Fraction(k)
        return GroupElement(self.structure, tuple(k * a for a in self._flat))

    def __lt__(self, other):
        return lex_compare(self, other) < 0

    def __le__(self, other):
        return lex_compare(self, other) <= 0


def lex_compare(a: GroupElement, b: GroupElement):
    """Exact three-way comparison; earlier blocks dominate."""
    a._check_same(b)
    return (a - b).sign()


def isolated_level(gamma: GroupElement):
    """Largest i such that the first i blocks of gamma vanish (r for zero).

    Level i is the convex subgroup of elements whose first i blocks vanish;
    level 0 is the whole group and level rank is zero.
    """
    return gamma.structure.row_level(gamma.flat())


def common_denominator(elements, *rationals):
    """The least L > 0 that clears the denominator of every flat
    coordinate of the elements and of every extra rational."""
    return math.lcm(*(c.denominator for el in elements for c in el.flat()),
                    *(q.denominator for q in rationals))


def scaled_row(gamma: GroupElement, L):
    """The integers L * gamma.flat(), or None when L does not clear every
    denominator of gamma.  With common_denominator, the one way a group
    value becomes an integer row."""
    flat = gamma.flat()
    if any(L % c.denominator for c in flat):
        return None
    return tuple(c.numerator * (L // c.denominator) for c in flat)


@dataclass(frozen=True)
class ValueGroup:
    """Finitely generated subgroup of a block group, given by generators."""

    structure: GroupStructure
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if g.structure != self.structure:
                raise AmbientMismatch("generator outside the ambient group")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def _lattice(self):
        """(scale L, HNF basis rows, pivot columns): the group is
        (1/L) * row-lattice(basis).  Computed once per group."""
        L = common_denominator(self.generators)
        rows = [row for row in (scaled_row(g, L) for g in self.generators)
                if any(row)]
        basis = hermite_row_basis(rows) if rows else ()
        return L, basis, _pivot_columns(basis)

    @property
    def rational_rank(self):
        return len(self._lattice[1])

    def coordinates(self, gamma: GroupElement):
        """Integer coordinates of gamma in the lattice basis, else None."""
        if gamma.structure != self.structure:
            raise AmbientMismatch("element outside the ambient group")
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


@cache
def _identity(n):
    """The n x n identity as integer rows, built once per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _pivot_columns(echelon_rows):
    return tuple(next(j for j, x in enumerate(row) if x)
                 for row in echelon_rows)


def generator_rows(big: ValueGroup, small: ValueGroup):
    """The integer coordinates of small's generators in big's lattice
    basis: the rows a Quotient of big by small is built from.

    Raises AmbientMismatch for groups over different ambient structures
    and NotASubgroup when a generator of small lies outside big.
    """
    if big.structure != small.structure:
        raise AmbientMismatch("groups over different ambient structures")
    rows = []
    for g in small.generators:
        coords = big.coordinates(g)
        if coords is None:
            raise NotASubgroup("small generator outside big group")
        rows.append(coords)
    return rows


class Quotient:
    """The finite quotient big/small of two value groups, built once.

    Built from big and rows, the integer coordinates in big's lattice
    basis of a generating set of small (generator_rows computes them from
    the generators; a caller that knows them by construction passes them
    straight).  Holds the Hermite basis H of their row lattice and its
    pivot columns.  H is canonical, so it does not depend on how small is
    generated.  [big : small] is the product of H's pivots, and a coset
    label is one reduction through H (Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, section 2.4).
    """

    def __init__(self, big: ValueGroup, rows):
        self.big = big
        self.hnf = hermite_row_basis(rows)
        _, basis, _ = big._lattice
        if len(self.hnf) < len(basis):
            raise InfiniteIndex("rational spans differ")
        # read once for label_row: big's lattice basis, None when it is
        # the identity (coordinates are then flat coordinates), and width
        width = big.structure.rational_rank
        self._basis = None if basis == _identity(width) else basis
        self._width = width
        self.pivots = _pivot_columns(self.hnf)
        self.index = math.prod(
            row[p] for row, p in zip(self.hnf, self.pivots))

    @cached_property
    def invariant_factors(self):
        """Invariant factors (> 1) of big/small."""
        # checked: the rows come from Quotient's caller
        snf = smith_normal_form(ExactMatrix.from_rows(self.hnf))
        return tuple(d for d in snf.D.diagonal_entries() if d > 1)

    @property
    def denominator(self):
        """L with big = (1/L) * row-lattice of its Hermite basis."""
        return self.big._lattice[0]

    def label_row(self, v):
        """L * the canonical representative of the coset whose coordinates
        in big's lattice basis are the integers v, L = denominator.

        v, a sequence, is reduced through the Hermite basis of small,
        giving the unique representative whose entry at each pivot column
        lies in [0, pivot); its flat coordinates are then summed in
        integers, unless big's basis is the identity and they are its
        coordinates.
        """
        for row, p in zip(self.hnf, self.pivots):
            q = v[p] // row[p]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        if self._basis is None:
            return tuple(v)
        flat = [0] * self._width
        for c, row in zip(v, self._basis):
            if c:
                flat = [a + c * b for a, b in zip(flat, row)]
        return tuple(flat)

    def label(self, gamma: GroupElement):
        """Canonical representative of gamma + small inside big.

        Two elements receive equal labels iff their difference lies in
        small.
        """
        v = self.big.coordinates(gamma)
        if v is None:
            raise NotInGroup("element outside the big group")
        return self.big.structure.from_row(self.label_row(v),
                                           self.denominator)


def subgroup_index(big: ValueGroup, small: ValueGroup):
    """e = [big : small] for subgroups spanning the same rational space."""
    return Quotient(big, generator_rows(big, small)).index


def quotient_invariant_factors(big: ValueGroup, small: ValueGroup):
    """Invariant factors (> 1) of big/small."""
    return Quotient(big, generator_rows(big, small)).invariant_factors


def coset_label(gamma: GroupElement, big: ValueGroup, small: ValueGroup):
    """Canonical representative of gamma + small inside big."""
    return Quotient(big, generator_rows(big, small)).label(gamma)
