"""Block-structured monomial extension data.

A monomial extension records how one set of regular parameters x_1..x_n is
expressed as unit-times-monomial in another set y_1..y_n, together with the
block structure of the valuation, the value assignment to the y variables
and formal unit markers.  The distinguished T-indices are the first s_i
positions of each block; the exponent matrix must follow a rigid zero
pattern: a T-row of block a may only touch T-columns of blocks >= a, a
non-T row is its own variable times a monomial in strictly later T-columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import (
    InvalidExtension,
    NonPositiveValue,
    SingularBlock,
    SingularLattice,
)
from .exact_lattice import (
    ExactMatrix,
    _check_index,
    _check_ints,
    abs_adjugate,
    determinant,
    hermite_row_basis,
)
from .ordered_groups import (
    GroupElement,
    GroupStructure,
    common_denominator,
    scaled_row,
)


@dataclass(frozen=True)
class BlockStructure:
    """Block count r with per-block sizes t_i and rational ranks s_i.  Every
    query is a lookup in the offsets or in a table built on first use."""

    r: int
    t: tuple
    s: tuple

    def __post_init__(self):
        _check_ints((self.r,), "block count")
        t = _check_ints(self.t, "block size")
        s = _check_ints(self.s, "block rank")
        if self.r < 1 or len(t) != self.r or len(s) != self.r:
            raise InvalidExtension("need r >= 1 with r block sizes and ranks")
        for ti, si in zip(t, s):
            if not 1 <= si <= ti:
                raise InvalidExtension("each block needs 1 <= s_i <= t_i")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_offsets", tuple(accumulate(t, initial=0)))

    @cached_property
    def _block(self):
        # n entries, so built after the extension checked n against A
        return tuple(b for b, ti in enumerate(self.t) for _ in range(ti))

    @cached_property
    def _t_indices(self):
        return tuple(j for off, si in zip(self._offsets, self.s)
                     for j in range(off, off + si))

    @property
    def n(self):
        return self._offsets[-1]

    def offset(self, block):
        """Index of the first variable of block (0-based); offset(r) = n.
        block is checked by _check_index on [0, r]."""
        return self._offsets[_check_index(block, self.r + 1, "block")]

    def block_of(self, index):
        """Block number (0-based) containing variable index, checked by
        _check_index on [0, n) before the table is built; is_t_index
        reads it first."""
        index = _check_index(index, self.n, "index")
        return self._block[index]

    def t_indices(self):
        """The T-set: first s_i indices of each block, ascending."""
        return self._t_indices

    def is_t_index(self, index):
        b = self.block_of(index)
        return index - self._offsets[b] < self.s[b]


@dataclass(frozen=True)
class Violation:
    kind: str
    location: tuple
    message: str


@dataclass(frozen=True)
class MonomialExtension:
    """Exponent matrix A with block data, unit markers and y-values.

    Row i encodes x_i = unit_i * prod_j y_j^{A[i][j]}.  Unit markers are
    formal: "1" denotes the trivial unit (residue 1, value 0).
    """

    blocks: BlockStructure
    A: ExactMatrix
    unit_markers: tuple
    y_values: tuple

    def __post_init__(self):
        n = self.blocks.n
        if self.A.rows != n or self.A.cols != n:
            raise InvalidExtension("exponent matrix must be n x n")
        markers = tuple(self.unit_markers)
        if len(markers) != n:
            raise InvalidExtension("need one unit marker per row")
        for m in markers:
            if type(m) is not str:
                raise InvalidExtension(
                    f"unit marker must be a string, not {m!r}")
        values = tuple(self.y_values)
        if len(values) != n:
            raise InvalidExtension("need one value per y variable")
        if any(type(v) is not GroupElement for v in values):
            raise InvalidExtension("y-values must be group elements")
        structure = values[0].structure
        for v in values:
            if v.structure != structure:
                raise InvalidExtension("y-values in different ambient groups")
        if structure.rank != self.blocks.r:
            raise InvalidExtension(
                "ambient group rank must equal the block count")
        object.__setattr__(self, "unit_markers", markers)
        object.__setattr__(self, "y_values", values)

    @property
    def structure(self) -> GroupStructure:
        return self.y_values[0].structure

    @cached_property
    def _value_rows(self):
        """(L, rows): the y-values as integer rows L * nu*(y_j), L their
        least common denominator.  The one integer copy of the y-values:
        computed once and read by _violations, _x_value_rows, coset_system
        and the rewrite, whose build() hands the rows it holds to the
        extension it makes."""
        L = common_denominator(self.y_values)
        return L, tuple(scaled_row(v, L) for v in self.y_values)

    @cached_property
    def _violations(self):
        """Violations of the required shape, checked once per extension.

        The y-values are read as integer rows over their least common
        denominator L > 0 (_value_rows), which keeps each value's sign,
        its isolated level and the rank of the T-values.
        """
        bs = self.blocks
        out = []
        for i, row in enumerate(self.A.entries):
            bi = bs.block_of(i)
            i_is_t = bs.is_t_index(i)
            for j, a in enumerate(row):
                if a == 0:
                    continue
                if a < 0:
                    out.append(Violation(
                        "negative_exponent", (i, j),
                        f"exponent a[{i}][{j}] = {a} is negative"))
                    continue
                if bs.is_t_index(j):
                    bj = bs.block_of(j)
                    ok = bj >= bi if i_is_t else (bj > bi or j == i)
                else:
                    ok = j == i and a == 1
                if not ok:
                    out.append(Violation(
                        "zero_pattern", (i, j),
                        f"exponent a[{i}][{j}] = {a} breaks the block "
                        f"pattern"))
            if not i_is_t and row[i] != 1:
                out.append(Violation(
                    "zero_pattern", (i, i),
                    f"non-T row {i} must carry its own variable with "
                    f"exponent 1"))
        for b, det in enumerate(self._g_determinants):
            if det == 0:
                out.append(Violation(
                    "singular_block", (b,),
                    f"diagonal exponent block of block {b} is singular"))
        _, rows = self._value_rows
        # T y-values rationally independent: the Hermite basis of their
        # nonzero rows has one row per unit of rank
        tlist = bs.t_indices()
        if len(hermite_row_basis([rows[j] for j in tlist])) != len(tlist):
            out.append(Violation(
                "dependent_values", tuple(tlist),
                "T-indexed y-values are rationally dependent"))
        structure = self.structure
        for j, row in enumerate(rows):
            if structure.row_sign(row) <= 0:
                out.append(Violation(
                    "nonpositive_value", (j,),
                    f"value of y_{j} is not strictly positive"))
                continue
            level = structure.row_level(row)
            if level != bs.block_of(j):
                out.append(Violation(
                    "misplaced_value", (j,),
                    f"value of y_{j} lives at isolated level "
                    f"{level}, expected {bs.block_of(j)}"))
        return tuple(out)

    @cached_property
    def _g_determinants(self):
        """det G_b of each block b, each taken once, by Bareiss.

        _violations reads their zeros.  An extension of the required shape
        has |det A| = |det A_T| = prod_b |det G_b|: a non-T column m is
        nonzero only in row m, where it is 1, so up to one permutation
        A = [[A_T, 0], [X, I]]; and A_T is block upper triangular with the
        G_b on its diagonal (coset_system proves it).  So the pipeline's
        |det A_T| and a random draw's |det A| are read off this product.
        """
        return tuple(map(determinant, map(self.g_block, range(self.blocks.r))))

    def t_submatrix(self):
        T = self.blocks.t_indices()
        rows = self.A.entries
        return ExactMatrix._of(tuple(tuple(rows[i][j] for j in T)
                                     for i in T))

    def g_block(self, block):
        off = self.blocks.offset(block)
        s = self.blocks.s[block]
        return ExactMatrix._of(tuple(row[off:off + s]
                                     for row in self.A.entries[off:off + s]))


def validate(me: MonomialExtension):
    """All violations of the required shape; an empty list means valid.

    The check runs once per extension; each call returns a fresh list.
    """
    return list(me._violations)


@dataclass(frozen=True)
class SSMForm:
    """A valid monomial extension whose non-T rows are trivial unit rows."""

    extension: MonomialExtension

    def __post_init__(self):
        me = self.extension
        problems = validate(me)
        if problems:
            raise InvalidExtension(
                "; ".join(v.message for v in problems))
        bs = me.blocks
        for m in range(bs.n):
            if bs.is_t_index(m):
                continue
            row = me.A.row(m)
            unit_row = tuple(1 if j == m else 0 for j in range(bs.n))
            if row != unit_row or me.unit_markers[m] != "1":
                raise InvalidExtension(
                    f"row {m} is not in strong monomial form")


def _x_value_rows(me: MonomialExtension):
    """(L, rows): rows[i] is L * nu(x_i) = sum_j a_ij * L * nu*(y_j) as a
    flat integer row, over the denominator L of the y-values.  Raises
    NonPositiveValue unless every nu(x_i) is strictly positive."""
    L, values = me._value_rows
    columns = tuple(zip(*values))
    rows = [[sum(map(mul, row, col)) for col in columns]
            for row in me.A.entries]
    for i, row in enumerate(rows):
        if me.structure.row_sign(row) <= 0:
            raise NonPositiveValue(f"nu(x_{i}) is not strictly positive")
    return L, rows


def induced_x_values(me: MonomialExtension):
    """Values of the x monomials: nu(x_i) = sum_j a_ij * nu*(y_j)."""
    L, rows = _x_value_rows(me)
    return tuple(me.structure.from_row(row, L) for row in rows)


@dataclass(frozen=True)
class AdjointRelations:
    """e = |det A_T| and B with A_T * B = e * I.

    Row i of B gives the Laurent exponents expressing y_i^e as a monomial in
    the T-indexed x variables (up to a formal unit); entries may be negative.
    """

    e: int
    B: ExactMatrix
    t_indices: tuple


def adjoint_relations(me: MonomialExtension) -> AdjointRelations:
    # B = sign(det A_T) * adj A_T, so the checked adjugate identity gives
    # B * A_T = e * I, which makes prod_j x_j^{B_ij} collapse to y_i^e
    try:
        e, B = abs_adjugate(me.t_submatrix())
    except SingularLattice:
        raise SingularBlock("T-submatrix is singular") from None
    return AdjointRelations(e=e, B=B, t_indices=me.blocks.t_indices())
