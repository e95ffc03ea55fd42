"""Exact integer linear algebra.

Smith normal form, determinants, adjugates, lattice indices, quotient
invariant factors and integer linear solving, all over arbitrary-precision
integers, on three integer eliminations: the extgcd Hermite echelon (the
Smith form alternates it over rows and columns), one Bareiss pass
(determinants and adjugates) and the in-place pivot-by-pivot Smith
elimination of quotient_invariants, which the pipeline calls on each
T-block.  The Smith diagonal is canonical, so that elimination may differ
from the passes; the transforms U and V are not, and are report bytes, so
smith_normal_form keeps the passes.  A rational solve is the adjugate over
the determinant, so there is no rational elimination.  Floating point
never enters; every operation is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimensionMismatch, NonIntegerEntry, SingularLattice


def _check_ints(entries, what="matrix entry"):
    """The entries as a tuple, each exactly an int, else NonIntegerEntry
    naming them what: nothing is truncated."""
    entries = tuple(entries)
    for x in entries:
        if type(x) is not int:
            raise NonIntegerEntry(
                f"{what} {x!r} is a {type(x).__name__}, not an int")
    return entries


def _check_index(i, size, what):
    """i, exactly an int (else NonIntegerEntry naming it what) in
    [0, size), else IndexError: True is no 1 and -1 no last entry."""
    if type(i) is not int:
        _check_ints((i,), what)
    if not 0 <= i < size:
        raise IndexError(i)
    return i


def _check_rationals(entries, what):
    """The entries as a tuple, each exactly an int or a Fraction, a str
    read as its Fraction, else NonIntegerEntry naming them what: no float
    is read bit by bit, no bool as 0 or 1, and no str that is no rational."""
    out = []
    for x in entries:
        if type(x) not in (int, Fraction, str):
            raise NonIntegerEntry(f"{what} {x!r} is a {type(x).__name__}, "
                                  f"not an int, Fraction or str")
        try:
            out.append(Fraction(x) if type(x) is str else x)
        except (ValueError, ZeroDivisionError):  # "abc", "1/0"
            raise NonIntegerEntry(
                f"{what} {x!r} is a str that is not a rational") from None
    return tuple(out)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable integer matrix; entries are a tuple of row tuples.

    The constructor is the checked boundary: every entry must be an int
    (a float, Fraction, bool or str is refused, never truncated) and the
    rows must have one length.  Matrices whose rows the package derives
    itself from checked ones, or from ints it has normalised, are built by
    _of, which skips the check; rows a caller hands over unnormalised go
    through the constructor.
    """

    entries: tuple

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise DimensionMismatch("ragged entry grid")
        for row in rows:
            _check_ints(row)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _of(cls, rows):
        """The matrix of rows that are already a rectangular tuple of int
        tuples, unchecked: only for rows derived inside the package."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n):
        """The n x n identity; n must be exactly an int, and not < 0."""
        _check_ints((n,), "dimension")
        if n < 0:
            raise DimensionMismatch(f"dimension {n} is negative")
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n)))

    @classmethod
    def diagonal(cls, diag):
        """The diagonal matrix of diag; only its n entries are checked."""
        _check_ints(diag)
        n = len(diag)
        return cls._of(tuple(tuple(diag[i] if i == j else 0
                                   for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        """Entry (i, j); each index is checked by _check_index."""
        i, j = ij
        row = self.row(i)
        return row[_check_index(j, len(row), "column index")]

    def row(self, i):
        """Row i, checked by _check_index."""
        return self.entries[_check_index(i, len(self.entries), "row index")]

    def transpose(self):
        """The transpose; an n x 0 matrix (n > 0) has none here, since its
        transpose 0 x n has no rows to carry the width."""
        if self.entries and not self.cols:
            raise DimensionMismatch(
                f"{self.rows}x0 matrix: a 0x{self.rows} transpose has no "
                f"rows to hold its shape")
        return ExactMatrix._of(tuple(zip(*self.entries)))

    def is_square(self):
        return self.rows == self.cols

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ot = tuple(zip(*other.entries))      # other's columns
        return ExactMatrix._of(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries))

    def apply(self, vector):
        """Matrix-vector product over the integers (or Fractions)."""
        if self.cols != len(vector):
            raise DimensionMismatch("vector length != column count")
        return tuple(sum(map(mul, row, vector)) for row in self.entries)

    def diagonal_entries(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D the Smith normal form of A."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix


def _bareiss(rows, k):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the first k columns.

    Every division is exact.  Returns (det, M) for k rows: det is the
    determinant of the leading k x k block and the first k columns of M are
    det * I, so on [A | I] the right block is adj A.  Returns (0, M) as soon
    as a column has no pivot.  This is the one Bareiss pass: determinants
    and adjugates both run it.
    """
    M = [list(row) for row in rows]
    sign = 1
    prev = 1
    for c in range(k):
        pivot = next((i for i in range(c, len(M)) if M[i][c]), None)
        if pivot is None:
            return 0, M
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        pk = M[c]
        p = pk[c]
        for i in range(len(M)):
            if i != c:
                ri = M[i]
                f = ri[c]
                M[i] = [(p * a - f * b) // prev for a, b in zip(ri, pk)]
        prev = p
    if sign < 0:
        M = [[-x for x in row] for row in M]
    return sign * prev, M


def determinant(A: ExactMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not A.is_square():
        raise DimensionMismatch("determinant of non-square matrix")
    return _bareiss(A.entries, A.rows)[0]


def is_unimodular(A: ExactMatrix):
    return A.is_square() and determinant(A) in (1, -1)


def _extgcd(x, y):
    """(g, a, b) with a*x + b*y = g = gcd(x, y) >= 0."""
    a0, a1 = 1, 0
    b0, b1 = 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if x < 0:
        x, a0, b0 = -x, -a0, -b0
    return x, a0, b0


def hermite_row_basis(rows, pivot_cols=None):
    """Canonical basis of the row lattice (row-style Hermite normal form).

    Returns echelon rows with positive pivots; entries above each pivot are
    reduced into [0, pivot).  The result depends only on the lattice, not on
    the presentation, so it is safe to use wherever a canonical basis or
    canonical coset representative is needed.

    Pivots are sought only in the first pivot_cols columns (all columns by
    default), so an augmented block is carried along but never pivoted
    on; rows that get no pivot follow the basis unless they vanish.  On
    [A | I] the right block is then a unimodular T with T * A the left
    block.  This extgcd echelon is the one integer row reduction;
    smith_normal_form alternates it over rows and columns.
    """
    work = [list(r) for r in rows if any(r)]
    if pivot_cols is None:
        pivot_cols = len(rows[0]) if rows else 0
    basis = []
    pivots = []
    for col in range(pivot_cols):
        live = [r for r in work if r[col]]
        if not live:
            continue
        pivot_row = live[0]
        for other in live[1:]:
            g, a, b = _extgcd(pivot_row[col], other[col])
            p, q = pivot_row[col] // g, other[col] // g
            pivot_row[:], other[:] = (
                [a * x + b * y for x, y in zip(pivot_row, other)],
                [p * y - q * x for x, y in zip(pivot_row, other)])
        if pivot_row[col] < 0:
            pivot_row[:] = [-x for x in pivot_row]
        basis.append(pivot_row)
        pivots.append(col)
        work = [r for r in work if r is not pivot_row and any(r)]
    # reduce entries above each pivot into [0, pivot), top-down: row k
    # vanishes on the earlier pivot columns, so they stay reduced
    for k, col in enumerate(pivots):
        for j in range(k):
            q = basis[j][col] // basis[k][col]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[k])]
    return tuple(tuple(r) for r in basis + work)


def smith_normal_form(A: ExactMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Alternating Hermite passes (Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, section 2.4): one over the rows of [M | U],
    one over the rows of [M^t | V^t], until M is diagonal.  The first pivot
    only shrinks, and once it divides its row and column both passes keep
    them cleared, so this ends.  While some d_i does not divide a later
    d_j, column j is added to column i; the next row pass replaces d_i by
    gcd(d_i, d_j), a proper divisor, so that ends too.  (Adding row j to
    row i instead would be reduced straight back by the canonical row
    pass.)  Every pass is canonical, so the transforms are reproducible;
    U and V are unimodular, so no row of [M | U] or [M^t | V^t] vanishes.
    Diagonal entries are nonnegative and satisfy d_1 | d_2 | ... .
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    U = [list(row) for row in ExactMatrix.identity(m).entries]
    V = [list(row) for row in ExactMatrix.identity(n).entries]
    while True:
        rows = hermite_row_basis([r + u for r, u in zip(M, U)], n)
        M = [list(r[:n]) for r in rows]
        U = [list(r[n:]) for r in rows]
        cols = hermite_row_basis(
            [[r[j] for r in M] + [r[j] for r in V] for j in range(n)], m)
        M = [[c[i] for c in cols] for i in range(m)]
        V = [[c[m + j] for c in cols] for j in range(n)]
        if any(x for i, r in enumerate(M) for j, x in enumerate(r) if i != j):
            continue
        # the column pass puts zero columns last, so zero d_i come last
        diag = [M[i][i] for i in range(min(m, n))]
        offender = next(((i, j) for i in range(len(diag))
                         for j in range(i + 1, len(diag))
                         if diag[i] and diag[j] % diag[i]), None)
        if offender is None:
            break
        i, j = offender
        for row in M + V:
            row[i] += row[j]
    return SmithDecomposition(
        U=ExactMatrix._of(tuple(map(tuple, U))),
        D=ExactMatrix._of(tuple(map(tuple, M))),
        V=ExactMatrix._of(tuple(map(tuple, V))),
    )


def lattice_index(A: ExactMatrix):
    """[Z^n : A Z^n] = |det A| for a nonsingular square integer matrix."""
    if not A.is_square():
        raise DimensionMismatch("lattice index needs a square matrix")
    d = determinant(A)
    if d == 0:
        raise SingularLattice("column lattice has infinite index")
    return abs(d)


def quotient_invariants(A: ExactMatrix):
    """Invariant factors (> 1) of Z^n / A Z^n; their product is |det A|.

    The Smith diagonal is canonical, so any unimodular elimination gives
    it (Cohen, GTM 138, section 2.4); this one takes it a pivot at a
    time, in place and with no transforms.  Pivot t clears column t below
    it by extgcd row operations (a zero pivot first takes a row with a
    nonzero entry there) and then row t right of it by extgcd column
    operations, on rows t.. only, since the leading block is diagonal.  A
    column operation that refills column t makes |pivot| a proper
    divisor, so the repeats end.  Where the pivot divides the entry the
    operation is a plain subtraction: the extgcd of p and -p swaps them,
    and would refill forever.  Column t zero from row t down is det A = 0:
    SingularLattice.  Z/a + Z/b = Z/gcd + Z/lcm, so gcd/lcm pairs put the
    |pivots| in divisibility order, giving smith_normal_form's D.
    """
    if not A.is_square():
        raise DimensionMismatch("quotient invariants need a square matrix")
    M = [list(row) for row in A.entries]
    n = len(M)
    diag = []
    for t in range(n):
        while True:
            if not M[t][t]:
                i = next((i for i in range(t + 1, n) if M[i][t]), None)
                if i is None:
                    raise SingularLattice("column lattice has infinite index")
                M[t], M[i] = M[i], M[t]
            for i in range(t + 1, n):
                p, x = M[t][t], M[i][t]
                if not x:
                    continue
                if x % p:
                    g, a, b = _extgcd(p, x)
                    p, x = p // g, x // g
                    M[t], M[i] = (
                        [a * u + b * v for u, v in zip(M[t], M[i])],
                        [p * v - x * u for u, v in zip(M[t], M[i])])
                else:
                    q = x // p
                    M[i] = [v - q * u for u, v in zip(M[t], M[i])]
            rows = M[t:]
            for j in range(t + 1, n):
                p, y = M[t][t], M[t][j]
                if not y:
                    continue
                if y % p:
                    g, a, b = _extgcd(p, y)
                    p, y = p // g, y // g
                    for row in rows:
                        row[t], row[j] = (a * row[t] + b * row[j],
                                          p * row[j] - y * row[t])
                else:
                    q = y // p
                    for row in rows:
                        row[j] -= q * row[t]
            if not any(row[t] for row in rows[1:]):
                break
        diag.append(abs(M[t][t]))
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(d for d in diag if d > 1)


def adjugate(A: ExactMatrix):
    """(det A, adj A) with adj A * A = det A * I, for nonsingular square A.

    One Bareiss Gauss-Jordan pass over [A | I] leaves det A * I on the left
    and adj A on the right.  The identity is checked before returning.
    Raises SingularLattice when det A = 0.

    The check cannot fail.  Each step multiplies [A | I] on the left (a
    row swap, (p r_i - f r_c) / prev, the final sign), and each division
    is exact, every entry being an integer determinant formed from
    [A | I] (Bareiss 1968); so the pass ends at L [A | I], whose left
    block L A is det A * I and whose right block L is returned.
    """
    if not A.is_square():
        raise DimensionMismatch("adjugate of non-square matrix")
    n = A.rows
    zeros = (0,) * n
    det, M = _bareiss([row + zeros[:i] + (1,) + zeros[i + 1:]
                       for i, row in enumerate(A.entries)], n)
    if det == 0:
        raise SingularLattice("adjugate of singular matrix")
    adj = tuple(tuple(row[n:]) for row in M)
    # adj * A = det * I, entry by entry, on the plain rows
    cols = tuple(zip(*A.entries))
    for i, row in enumerate(adj):
        for j, col in enumerate(cols):
            if sum(map(mul, row, col)) != (det if i == j else 0):
                raise SingularLattice("adjugate identity failed")
    return det, ExactMatrix._of(adj)


def abs_adjugate(A: ExactMatrix):
    """(|det A|, C) with C = sign(det A) * adj A, so C * A = |det A| * I,
    for nonsingular square A: the one place an adjugate is negated."""
    d, adj = adjugate(A)
    if d > 0:
        return d, adj
    return -d, ExactMatrix._of(tuple(tuple(-x for x in row)
                                     for row in adj.entries))


def unimodular_inverse(A: ExactMatrix) -> ExactMatrix:
    """Exact integer inverse of a unimodular matrix: sign(det A) * adj A."""
    d, inverse = abs_adjugate(A)
    if d != 1:
        raise SingularLattice("matrix is not unimodular")
    return inverse


def solve_rational(A: ExactMatrix, b):
    """Unique rational solution of A x = b for nonsingular square A:
    x_i = (adj A b)_i / det A, from the one checked adjugate.  Each b_i
    is an int, a Fraction or a str (_check_rationals)."""
    b = _check_rationals(b, "right-hand side entry")
    if not A.is_square() or A.rows != len(b):
        raise DimensionMismatch("square system required")
    try:
        det, adj = adjugate(A)
    except SingularLattice:
        raise SingularLattice("singular system") from None
    return tuple(Fraction(x, det) for x in adj.apply(b))


def _smith_residues(snf: SmithDecomposition, b):
    """y with D y = U b, where snf is U A V = D, or None when some c_i of
    c = U b is not 0 mod d_i (0 past the diagonal).  A Z^n = U^{-1} D Z^n,
    so y exists exactly when b lies in the column lattice A Z^n."""
    if snf.U.rows != len(b):
        raise DimensionMismatch("right-hand side length != row count")
    c = snf.U.apply(_check_ints(b, "right-hand side entry"))
    diag = snf.D.diagonal_entries()
    y = [0] * snf.V.rows
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if (ci % d) if d else ci:
            return None
        if d:
            y[i] = ci // d
    return y


def in_column_lattice(snf: SmithDecomposition, b):
    """True iff b lies in the column lattice A Z^n, where snf is U A V = D:
    one Smith form answers every query."""
    return _smith_residues(snf, b) is not None


def solve_integer(A: ExactMatrix, b):
    """Some integer solution of A x = b, or None when none exists.

    With U A V = D, x = V y for y with D y = U b; then
    A x = U^{-1} D V^{-1} V y = U^{-1} U b = b, so x needs no check.
    """
    snf = smith_normal_form(A)
    y = _smith_residues(snf, b)
    return None if y is None else snf.V.apply(tuple(y))
