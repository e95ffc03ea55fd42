"""Rewriting monomial extensions into strong monomial form.

The engine normalizes an extension whose non-T rows are a variable times a
monomial in strictly-later-block T-variables.  Each offending row is fixed
by a burst of column transforms (substituting y_m = y'_m * y_c for later
T-columns c), one compensating row transform on the x side, and a formal
unit rescale; the trace of steps replays deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import add

from .errors import (
    EnumerationOverflow,
    HypothesisA6Failed,
    MalformedStep,
    NoNonnegativeLift,
    NotAlongValuation,
    NotTheorem48Form,
)
from .exact_lattice import ExactMatrix, adjugate, smith_normal_form
from .affine_monoids import ParallelepipedBasis, labelled_parallelepiped
from .monomial_extension import (
    MonomialExtension,
    SSMForm,
    _x_value_rows,
    validate,
)
from .ordered_groups import Quotient, ValueGroup


@dataclass(frozen=True)
class TransformStep:
    """One replayable rewrite step.

    kind "s":       substitute y_row = y'_row * y_target (column transform);
                    blocks = (i, j, k, l) in 1-based block coordinates.
    kind "r":       divide x_row by prod of x_col^exp for (col, exp) pairs.
    kind "rescale": absorb the accumulated unit into y_row.
    """

    kind: str
    row: int
    target: int | None = None
    blocks: tuple | None = None
    exponents: tuple = ()


STEP_KINDS = ("s", "r", "rescale")
# lift candidates tried per row; the tests (bundled scenarios included)
# need at most 275 and the benchmark workloads at most 110
_SEARCH_BUDGET = 100_000


def _check_steps(steps, n):
    """Reject a step of unknown kind, one whose row, target or exponent
    row lies outside [0, n), or an "r" step with an exponent that is not
    exactly an int (a bool is refused, as ExactMatrix refuses it), before
    any step is applied."""
    for step in steps:
        if step.kind not in STEP_KINDS:
            raise MalformedStep(f"unknown step kind {step.kind!r}")
        named = [step.row]
        if step.kind == "s":
            named.append(step.target)
        elif step.kind == "r":
            named.extend(row for row, _ in step.exponents)
            for _, exp in step.exponents:
                if type(exp) is not int:
                    raise MalformedStep(
                        f"'r' step has exponent {exp!r}, not an integer")
        for i in named:
            if not (isinstance(i, int) and 0 <= i < n):
                raise MalformedStep(
                    f"{step.kind!r} step names row {i!r}, outside "
                    f"[0, {n})")


class _Rewrite:
    """An extension under rewriting: the integer rows of A, the y-values
    as integer rows over their least common denominator L
    (me._value_rows), and the unit markers, changed in place; build()
    makes the extension."""

    def __init__(self, me: MonomialExtension):
        self.blocks = me.blocks
        self.structure = me.structure
        self.rows = [list(row) for row in me.A.entries]
        self.L, values = me._value_rows
        self.values = [list(row) for row in values]
        self.elements = list(me.y_values)
        self.markers = list(me.unit_markers)

    def apply(self, step: TransformStep, reps=1):
        """Apply a range-checked step reps times."""
        m = step.row
        if step.kind == "s":
            self._substitute(m, step.target, reps)
        elif step.kind == "r":
            rows = self.rows
            for _ in range(reps):
                for col_row, exp in step.exponents:
                    rows[m] = [a - exp * b
                               for a, b in zip(rows[m], rows[col_row])]
            if step.exponents:
                self.markers[m] = "gamma*delta"
        else:
            self.markers[m] = "1"

    def _substitute(self, m, c, reps):
        """reps substitutions y_m = y'_m * y_c as one burst: column c gains
        reps times column m, and nu(y_m) drops by reps * nu(y_c).

        nu(y_m) - k nu(y_c) is linear in k, so it is positive for every
        k <= reps exactly when it is positive at the end where it is least:
        k = reps when nu(y_c) > 0, else k = 1.  The burst therefore raises
        exactly when one of its single steps would, with the same message.
        The values are integer rows over one L > 0, so the burst is one
        integer row operation and row_sign reads the signs.
        """
        bs = self.blocks
        if bs.block_of(m) >= bs.block_of(c):
            raise NotAlongValuation(
                f"target column {c} must lie in a strictly later block "
                f"than {m}")
        if not bs.is_t_index(c):
            raise NotTheorem48Form(f"target column {c} is not a T-index")
        ym, yc = self.values[m], self.values[c]
        row_sign = self.structure.row_sign
        least = reps if row_sign(yc) > 0 else 1
        value = [a - least * b for a, b in zip(ym, yc)]
        if row_sign(value) <= 0:
            raise NotAlongValuation(
                f"value of y'_{m} would not be strictly positive")
        if least != reps:
            value = [a - reps * b for a, b in zip(ym, yc)]
        for row in self.rows:
            row[c] += reps * row[m]
        self.values[m] = value
        self.elements[m] = None

    def build(self):
        # the rows are the checked A's, changed by int column adds and by
        # the int exponents _check_steps admits; a y-value is made again
        # only when a burst changed it.  A burst maps the y-values to a
        # tuple that generates the same group, so L is still their least
        # common denominator, and the rows are the new _value_rows
        structure, L = self.structure, self.L
        me = MonomialExtension(
            blocks=self.blocks,
            A=ExactMatrix._of(tuple(map(tuple, self.rows))),
            unit_markers=tuple(self.markers),
            y_values=tuple(
                structure.from_row(row, L) if element is None else element
                for row, element in zip(self.values, self.elements)),
        )
        me.__dict__["_value_rows"] = L, tuple(map(tuple, self.values))
        return me


def replay(initial: MonomialExtension, steps):
    """The extension that the steps of a trace make of initial.

    Every step is range-checked before any is applied.  Each run of equal
    consecutive steps is applied as one burst, and the extension is built
    once; an empty trace returns initial itself.
    """
    steps = tuple(steps)
    if not steps:
        return initial
    _check_steps(steps, initial.blocks.n)
    state = _Rewrite(initial)
    for step, run in groupby(steps):
        state.apply(step, sum(1 for _ in run))
    return state.build()


def apply_step(me: MonomialExtension, step: TransformStep):
    """The extension after one step."""
    return replay(me, (step,))


@dataclass(frozen=True)
class MonomializationTrace:
    initial: MonomialExtension
    steps: tuple
    final: SSMForm


def _lift_numerators(base, columns, bound, b):
    """adj (h + b) for every b in [0, bound]^k, ordered by total and then
    lexicographically, given base = adj h and the k columns of adj.

    b is a list of k entries, set to each candidate before it is yielded.
    Each level of the recursion fixes one entry of b and carries its share
    of the numerators, adding one column per step, so a candidate costs
    O(k): no tuple h + b and no product with adj.
    """
    k = len(columns)

    def level(j, num, rest):
        column = columns[j]
        if j == k - 1:
            if rest <= bound:
                b[j] = rest
                yield tuple([a + rest * c for a, c in zip(num, column)])
            return
        for first in range(min(rest, bound) + 1):
            b[j] = first
            yield from level(j + 1, num, rest - first)
            num = list(map(add, num, column))

    for total in range(bound * k + 1):
        yield from level(0, base, total)


def _lift(m, det, adj, h, bound):
    """(b, c) for the first b of _lift_numerators for which c =
    adj (h + b) / det is a nonnegative integer vector, adj the adjugate
    of the lift's square matrix and det its determinant, of either sign.

    Tries at most _SEARCH_BUDGET candidates: EnumerationOverflow past it,
    NoNonnegativeLift when every b in [0, bound]^k fails.
    """
    b = [0] * len(h)
    candidates = _lift_numerators(
        adj.apply(h), tuple(zip(*adj.entries)), bound, b)
    for tried, num in enumerate(candidates):
        if tried == _SEARCH_BUDGET:
            raise EnumerationOverflow(
                f"lift search for row {m} exhausted its budget of "
                f"{_SEARCH_BUDGET} candidates")
        if all(x % det == 0 and x // det >= 0 for x in num):
            return tuple(b), tuple(x // det for x in num)
    raise NoNonnegativeLift(
        f"no nonnegative lift for row {m} within exponent bound {bound}")


def strong_monomialize(me: MonomialExtension) -> MonomializationTrace:
    """Normalize a Theorem-4.8-shaped extension to strong monomial form.

    Offending non-T rows are processed in increasing order.  For row m in
    block i with residual exponents h on later T-columns, the smallest
    (graded-lex) nonnegative b is chosen such that h + b lifts to
    nonnegative integer exponents c on the later T-rows; b is realized by
    column substitutions, c by one row transform, and a final rescale
    restores the trivial unit marker.

    The lift search tries at most _SEARCH_BUDGET candidates b per row and
    raises EnumerationOverflow past it.  The substitutions of each burst
    are applied at once to one integer state, and the extension is built
    once, at the end.

    Every non-T row m of a valid extension is in Theorem-4.8 shape, so
    none is checked again: validate admits a_mj != 0 only at j = m with
    a_mm = 1 or at a T-column of a strictly later block, and never < 0.
    Nor is row m checked after its "r" step: no step changes a T-row (0
    off the T-columns of its own and later blocks), the bursts make row m
    h + b on later_t, 1 at m and 0 elsewhere, and c = adj (h + b) / det
    solves A_sub^t c = h + b exactly.  SSMForm(final) checks it again.
    """
    problems = validate(me)
    if problems:
        raise NotTheorem48Form("; ".join(v.message for v in problems))
    bs = me.blocks
    state = _Rewrite(me)
    rows = state.rows
    steps = []
    max_entry = max((abs(x) for row in rows for x in row), default=1)
    bound = 8 * max(max_entry, 1)

    for m in range(bs.n):
        if bs.is_t_index(m):
            continue
        unit_row = [1 if j == m else 0 for j in range(bs.n)]
        if rows[m] == unit_row:
            continue
        bi = bs.block_of(m)
        later_t = [j for j in bs.t_indices() if bs.block_of(j) > bi]
        h = [rows[m][j] for j in later_t]
        sub = ExactMatrix._of(tuple(tuple(rows[i][j] for j in later_t)
                                    for i in later_t))
        # c = adj / det * (h + b); one adjugate serves every candidate b
        b, c = _lift(m, *adjugate(sub.transpose()), h, bound)
        for col, reps in zip(later_t, b):
            if not reps:
                continue
            step = TransformStep(
                kind="s", row=m, target=col,
                blocks=(bi + 1, m - bs.offset(bi) + 1,
                        bs.block_of(col) + 1,
                        col - bs.offset(bs.block_of(col)) + 1))
            state.apply(step, reps)
            steps.extend([step] * reps)
        r_step = TransformStep(
            kind="r", row=m,
            exponents=tuple((row, exp) for row, exp in zip(later_t, c)
                            if exp))
        state.apply(r_step)
        steps.append(r_step)
        rescale = TransformStep(kind="rescale", row=m)
        state.apply(rescale)
        steps.append(rescale)

    final = state.build() if steps else me
    return MonomializationTrace(
        initial=me, steps=tuple(steps), final=SSMForm(final))


@dataclass(frozen=True)
class CosetSystem:
    """Parallelepiped generators with their value-group coset labels.

    The labels are kept as integer rows over the denominator L of the big
    group: label_rows[i] is L times the flat coordinates of the canonical
    coset representative of lattice_points[i].  labels builds the group
    elements on first use.
    """

    extension: MonomialExtension
    e: int
    lattice_points: tuple          # Lambda, lex sorted
    label_rows: tuple              # L * canonical coset representatives
    invariant_factors: tuple       # of Z^n / A^t Z^n
    snf_at: object                 # SmithDecomposition of A^t
    big_group: ValueGroup
    quotient: Quotient = field(compare=False, repr=False)  # big / small
    parallelepiped: ParallelepipedBasis = field(compare=False, repr=False)

    @property
    def denominator(self):
        """L, the common denominator of the label rows."""
        return self.quotient.denominator

    @cached_property
    def labels(self):
        """Canonical coset representatives, one per lattice point."""
        structure = self.big_group.structure
        return tuple(structure.from_row(row, self.denominator)
                     for row in self.label_rows)


def coset_system(ssm: SSMForm) -> CosetSystem:
    """Build the coset representative system of a strong monomial form.

    The parallelepiped of the rows of A is walked once, labelling each
    point as it goes; its point count e = |det A^t| = |det A| is used as
    it is, and the Smith form of A^t is taken once, for the invariant
    factors and as snf_at.
    A is nonsingular without a further check: variables are ordered by
    block and validate admits a_ij != 0 only when j's block is not before
    i's, so A is block upper triangular with diagonal blocks
    [[G_b, 0], [0, I]], det A = prod_b det G_b, and validate rejects a
    singular G_b.

    Hypothesis A6, that e equals the index [big : small] of the value
    group of x in the value group of y, is checked.  Hypothesis A7, that
    b -> sum_j b_j nu*(y_j) induces an isomorphism Z^n / A^t Z^n ->
    big/small, then holds without further checks:

    - the map phi: Z^n -> big is onto, because the y-values generate big;
    - phi(A^t Z^n) = small, because nu(x_i) is phi of the i-th row of A;
    - so phi induces a surjection Z^n / A^t Z^n -> big/small;
    - both sides have e elements by A6, so it is a bijection.

    Hence the e parallelepiped points receive e distinct coset labels and
    the invariant factors of A^t are those of big/small.

    small lies in big by construction, so the quotient is built from
    coordinate rows, not from small's generators.  The y-values generate
    big and nu(x_i) = sum_j a_ij nu*(y_j) with integer a_ij, so nu(x_i)
    is in big.  Both kinds of row are integers over one denominator, with
    no rational arithmetic.  big is generated by the y-values, so its
    denominator is common_denominator(y-values), the L of
    me._value_rows, whose rows scaled_row(y_j, L) are the very rows big's
    Hermite basis was reduced from; _x_value_rows gives the rows
    L * nu(x_i) over the same L, and checks nu(x_i) > 0 first.
    big.row_coordinates back-substitutes each row through that basis.
    Every row lies in the lattice the basis spans, so none fails.  M is
    the matrix of the y-values' coordinates, and the quotient is built
    from those of the nu(x_i).  That big and small have the same rational
    span (finite index) is still checked, by Quotient (InfiniteIndex),
    and so is A6.

    Coordinates in big's lattice basis are unique, so they are linear:
    the coordinates of nu(x_i) are row i of A M, and those of phi(sigma)
    are sigma M.  M is taken once, and each label is one Hermite
    reduction of the integer row sigma M.  That row is not computed:
    labelled_parallelepiped carries x M through its box walk by one
    column add per step, x the box point that sigma represents, and
    labels it instead.  This is exact.  sigma = x - sum_i q_i (row i of A)
    for integers q_i, so sigma M = x M - sum_i q_i (row i of A M); row i
    of A M is the coordinate row of nu(x_i), which lies in small, so x M
    and sigma M are in one coset of big/small and label_row, which reduces
    through the Hermite basis of small's rows, gives both the same
    canonical representative.

    The walk refuses a parallelepiped of more than
    affine_monoids._POINT_BUDGET points before it starts.
    """
    me = ssm.extension
    _, x_rows = _x_value_rows(me)  # NonPositiveValue unless nu(x_i) > 0
    big = ValueGroup(me.structure, me.y_values)
    M = [big.row_coordinates(row) for row in me._value_rows[1]]
    quotient = Quotient(big, [big.row_coordinates(row) for row in x_rows])
    pb, label_rows = labelled_parallelepiped(
        me.A.entries, M, quotient.label_row)
    e = pb.index
    if quotient.index != e:
        raise HypothesisA6Failed(
            f"|det A| = {e} but subgroup index is {quotient.index}")
    snf_at = smith_normal_form(me.A.transpose())
    return CosetSystem(
        extension=me,
        e=e,
        lattice_points=pb.points,
        label_rows=label_rows,
        # det A^t = +-e != 0, so every diagonal entry is nonzero
        invariant_factors=tuple(
            d for d in snf_at.D.diagonal_entries() if d > 1),
        snf_at=snf_at,
        big_group=big,
        quotient=quotient,
        parallelepiped=pb,
    )
