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
from math import prod
from operator import add, mul, sub

from .errors import (
    EnumerationOverflow,
    HypothesisA6Failed,
    MalformedStep,
    NoNonnegativeLift,
    NotAlongValuation,
    NotTheorem48Form,
    SingularLattice,
)
from .exact_lattice import (
    ExactMatrix,
    hermite_row_basis,
    quotient_invariants,
    smith_normal_form,
)
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
# forced checks of the lift search per row, hit or not; tier-1 needs at
# most 1000 (the (500, 1000) A6 shape, k = 1, where every candidate is a
# check), the large-determinant draws at most 95 and the benchmark
# workloads at most 9
_SEARCH_BUDGET = 100_000


def _step_blocks(bs, m, c):
    """The blocks (i, j, k, l) of an "s" step of row m and target c: y_m
    is variable j of block i and y_c variable l of block k, all 1-based."""
    bm, bc = bs.block_of(m), bs.block_of(c)
    return bm + 1, m - bs.offset(bm) + 1, bc + 1, c - bs.offset(bc) + 1


def _check_steps(steps, bs):
    """Reject a step of unknown kind, one whose row, target or exponent
    row is not an int in [0, n), an "r" step with an exponent that is not
    exactly an int (a bool is refused, as ExactMatrix refuses it), or
    blocks other than an "s" step's _step_blocks, before any is applied.
    A step that is the object before it (a recorded burst) is checked
    once, in each of the two passes.

    Then, every step being well formed, an "s" step whose target is not
    in a strictly later block than its row (NotAlongValuation) or is not
    a T-index (NotTheorem48Form) is refused, so a trace with a malformed
    step is a MalformedStep whatever its other faults.  These are all the
    step refusals that do not depend on the rewrite state; the one that
    does, positivity, is _Rewrite._substitute's.
    """
    n = bs.n
    distinct = [step for previous, step in zip((None, *steps), steps)
                if step is not previous]
    for step in distinct:
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
            if not (type(i) is int and 0 <= i < n):
                raise MalformedStep(
                    f"{step.kind!r} step names row {i!r}, not an int in "
                    f"[0, {n})")
        if step.blocks is None:
            continue
        if step.kind != "s":
            raise MalformedStep(f"{step.kind!r} step has blocks")
        blocks = _step_blocks(bs, step.row, step.target)
        if tuple(step.blocks) != blocks:
            raise MalformedStep(
                f"'s' step of row {step.row} and target {step.target} has "
                f"blocks {list(step.blocks)}, not {list(blocks)}")
    for m, c in ((x.row, x.target) for x in distinct if x.kind == "s"):
        if bs.block_of(m) >= bs.block_of(c):
            raise NotAlongValuation(
                f"target column {c} must lie in a strictly later block "
                f"than {m}")
        if not bs.is_t_index(c):
            raise NotTheorem48Form(f"target column {c} is not a T-index")


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
        self.markers = list(me.unit_markers)

    def apply(self, step: TransformStep, reps):
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

        This is the one refusal of a step that depends on the rewrite
        state; _check_steps has refused every other before any step ran,
        so c is a T-index of a strictly later block than m.

        The positivity refusal cannot fire in strong_monomialize.  validate
        puts nu(y_m) at isolated level block(m), positive there; c lies in
        a strictly later block, so nu(y_c) vanishes on every block up to
        block(m).  So nu(y_m) - k nu(y_c) keeps the leading block of
        nu(y_m): positive, at the same level, after every burst, and the
        pipeline's values_positive cannot fail either.  The refusal guards
        replay of a trace that strong_monomialize did not record.
        """
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

    def build(self):
        # the rows are the checked A's, changed by int column adds and by
        # the int exponents _check_steps admits.  A burst maps the
        # y-values to a tuple that generates the same group, so L is still
        # their least common denominator, and the rows are the new
        # _value_rows
        structure, L = self.structure, self.L
        values = tuple(map(tuple, self.values))
        me = MonomialExtension(
            blocks=self.blocks,
            A=ExactMatrix._of(tuple(map(tuple, self.rows))),
            unit_markers=tuple(self.markers),
            y_values=tuple(structure.from_row(row, L) for row in values),
        )
        me.__dict__["_value_rows"] = L, values
        return me


def replay(initial: MonomialExtension, steps):
    """The extension that the steps of a trace make of initial: the one
    driver of _Rewrite, for strong_monomialize and for a decoded trace.
    Every step is checked (_check_steps) before any is applied.  Each run
    of equal consecutive steps is applied as one burst, and the extension
    is built once; an empty trace returns initial itself.
    """
    steps = tuple(steps)
    if not steps:
        return initial
    _check_steps(steps, initial.blocks)
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


def _coset_checks(H, h, bound, b, q):
    """Walk the b in [0, bound]^k, ordered by total and then
    lexicographically, for which h + b can lie in the row lattice of H,
    upper triangular with positive pivots on its first k columns (later
    columns are not read): yield once per forced last entry, True when
    h + b = q H.

    b and q are lists of k entries, set before each yield.  Level j has
    fixed q_i for i < j, and with them the residual h - sum_i q_i H_i on
    the columns from j on; q_j is an integer exactly when b_j is -res_j
    mod H_jj, so only that residue class is walked, and each step adds
    one to q_j and takes one row of H off the residual: O(k) per step.
    The last entry is forced by the total and checked.
    """
    k = len(h)

    def level(j, res, rest):
        d = H[j][j]
        if j == k - 1:
            if rest <= bound:
                b[j] = rest
                q[j], off = divmod(res[0] + rest, d)
                yield not off
            return
        row = H[j][j + 1:k]
        first = -res[0] % d
        qj = (res[0] + first) // d
        res = [a - qj * x for a, x in zip(res[1:], row)]
        for bj in range(first, min(rest, bound) + 1, d):
            b[j], q[j] = bj, qj
            yield from level(j + 1, res, rest - bj)
            qj += 1
            res = list(map(sub, res, row))

    for total in range(bound * k + 1):
        yield from level(0, h, total)


def _lift(m, A_sub, reduced, h, bound):
    """(b, c) for the first b of _coset_checks with c A_sub = h + b and c
    a nonnegative integer vector, A_sub the lift's square nonsingular
    matrix and reduced = [H | U] its Hermite pass over [A_sub | I], so
    that H = U A_sub: a hit q H = h + b lifts to c = q U.  The c returned
    is checked against A_sub.

    Makes at most _SEARCH_BUDGET forced checks, hit or not:
    EnumerationOverflow past it, NoNonnegativeLift when every b in
    [0, bound]^k fails.
    """
    k = len(h)
    columns = tuple(zip(*(row[k:] for row in reduced)))
    b, q = [0] * k, [0] * k
    for checked, member in enumerate(_coset_checks(reduced, h, bound, b, q)):
        if checked == _SEARCH_BUDGET:
            raise EnumerationOverflow(
                f"lift search for row {m} exhausted its budget of "
                f"{_SEARCH_BUDGET} candidates")
        if member:
            c = [sum(map(mul, q, column)) for column in columns]
            if min(c) >= 0:
                if [sum(map(mul, c, column)) for column in zip(*A_sub)] != \
                        list(map(add, h, b)):
                    raise SingularLattice(
                        f"lift of row {m} does not solve c A_sub = h + b")
                return tuple(b), tuple(c)
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

    The lift search walks one coset.  c A_sub = h + b has an integer
    solution exactly when h + b lies in the row lattice of A_sub, the
    later T-rows on the later T-columns.  One hermite_row_basis pass over
    [A_sub | I] per block gives [H | U] with H = U A_sub, U unimodular and
    H upper triangular with positive pivots, so H is a basis of that
    lattice: h + b lies in it exactly when h + b = q H for an integer q.
    H being triangular, q_j = (h_j + b_j - sum_{i<j} q_i H_ij) / H_jj,
    an integer exactly when b_j is in one class mod H_jj that b_0..b_{j-1}
    fix (Cohen, GTM 138, section 2.4).  So _coset_checks meets the
    graded-lex candidates whose first k - 1 entries pass, in the same
    order, and checks the last; every candidate it skips has no integer c
    at all, so the first hit is the first b of the full graded-lex order
    with a nonnegative integer c.  That c is unique, A_sub being
    nonsingular: c = q U, since q U A_sub = q H = h + b, and it equals
    adj(A_sub^t) (h + b) / det A_sub^t.  _lift checks c A_sub = h + b.

    The search makes at most _SEARCH_BUDGET forced checks per row, hit or
    not, and raises EnumerationOverflow past it; each check is one
    candidate b of the full order.  The steps are only recorded: the
    final form is replay(me, steps), the one driver of the rewrite, so
    the trace replays to it by construction.

    Every h and T-row is read off the input: validate lets a non-T column
    m be nonzero only in row m, with a_mm = 1, and no entry be < 0.  So
    an "s" step of row m (column c += reps * column m) changes row m
    alone, as an "r" step does, and row m is e_m plus h on later_t, a
    unit row when h = 0.  No T-row changes, so one Hermite pass of A_sub
    serves a whole block.  Nor is row m checked after its "r" step: the
    bursts make row m h + b on later_t, 1 at m and 0 elsewhere, and the
    checked c solves c A_sub = h + b exactly.  So the final form is
    handed _violations = () instead of a second validate: its G-blocks
    and T-values are the input's, a burst keeps each non-T value positive
    at its own level (_Rewrite._substitute), and SSMForm checks the unit
    rows.
    """
    problems = validate(me)
    if problems:
        raise NotTheorem48Form("; ".join(v.message for v in problems))
    bs = me.blocks
    rows = me.A.entries
    steps = []
    bound = 8 * max(map(max, rows))  # no entry < 0 and no zero row
    for bi in range(bs.r):
        later_t = bs.t_indices()[sum(bs.s[:bi + 1]):]
        lift = None
        for m in range(bs.offset(bi) + bs.s[bi], bs.offset(bi + 1)):
            h = [rows[m][j] for j in later_t]
            if not any(h):
                continue
            if lift is None:  # H = U A_sub, for every row of the block
                A_sub = [[rows[i][j] for j in later_t] for i in later_t]
                lift = A_sub, hermite_row_basis(
                    [row + [int(i == j) for j in range(len(row))]
                     for i, row in enumerate(A_sub)], len(A_sub))
            b, c = _lift(m, *lift, h, bound)
            for col, reps in zip(later_t, b):
                if reps:  # a burst: one step object, repeated
                    step = TransformStep(kind="s", row=m, target=col,
                                         blocks=_step_blocks(bs, m, col))
                    steps += [step] * reps
            steps.append(TransformStep(kind="r", row=m, exponents=tuple(
                (row, exp) for row, exp in zip(later_t, c) if exp)))
            steps.append(TransformStep(kind="rescale", row=m))

    final = replay(me, steps)
    final.__dict__["_violations"] = ()  # valid, by the proof above
    return MonomializationTrace(
        initial=me, steps=tuple(steps), final=SSMForm(final))


@dataclass(frozen=True)
class CosetSystem:
    """Parallelepiped generators with their value-group coset labels.

    The labels are kept as integer rows over the denominator L of the big
    group: label_rows[i] is L times the flat coordinates of the canonical
    coset representative of lattice_points[i] (Quotient.label_columns),
    which depends on small alone.  labels builds the group elements on
    first use.
    """

    extension: MonomialExtension
    e: int
    lattice_points: tuple          # Lambda, lex sorted
    label_rows: tuple              # L * canonical coset representatives
    invariant_factors: tuple       # of Z^n / A^t Z^n
    big_group: ValueGroup
    quotient: Quotient = field(compare=False, repr=False)  # big / small
    parallelepiped: ParallelepipedBasis = field(compare=False, repr=False)

    @property
    def denominator(self):
        """L, the common denominator of the label rows."""
        return self.quotient.denominator

    @cached_property
    def snf_at(self):
        """The SmithDecomposition of A^t, taken on first read."""
        return smith_normal_form(self.extension.A.transpose())

    @cached_property
    def labels(self):
        """Canonical coset representatives, one per lattice point."""
        structure = self.big_group.structure
        return tuple(structure.from_row(row, self.denominator)
                     for row in self.label_rows)


def coset_system(ssm: SSMForm) -> CosetSystem:
    """Build the coset representative system of a strong monomial form.

    The Smith diagonal of the |T| x |T| T-block A_T, with no transforms,
    is taken once (quotient_invariants): its entries > 1 are the invariant
    factors, and e is their product.  validate lets a
    non-T column m be nonzero only in row m, and SSMForm makes row m the
    unit row e_m; so up to one permutation A = diag(I, A_T), and
    Z^n / A^t Z^n = Z^T / A_T^t Z^T.  A_T^t has the Smith diagonal of A_T,
    and e = |det A| = |det A_T| is its product.  That is not 0: validate
    admits a_ij != 0 only when j's block is not before i's, so A_T is
    block upper triangular with the G_b on its diagonal, and validate
    rejects a singular G_b.  Then the parallelepiped of the rows of A is
    walked once, with a label for every point; the walk refuses more than
    affine_monoids._POINT_BUDGET points before it starts.

    Hypothesis A6, that e equals the index [big : small] of the value
    group of x in the value group of y, is checked before the walk, so a
    case that fails it builds no point.  Hypothesis A7, that
    b -> sum_j b_j nu*(y_j) induces an isomorphism Z^n / A^t Z^n ->
    big/small, then holds without further checks:

    - the map phi: Z^n -> big is onto, because the y-values generate big;
    - phi(A^t Z^n) = small, because nu(x_i) is phi of the i-th row of A;
    - so phi induces a surjection Z^n / A^t Z^n -> big/small;
    - both sides have e elements by A6, so it is a bijection.

    Hence the e parallelepiped points receive e distinct coset labels and
    the invariant factors of A^t are those of big/small.

    small lies in big by construction, so the quotient is built from
    the value rows, not from small's generators.  big is generated by the
    y-values, so its denominator is common_denominator(y-values), the L
    of me._value_rows, and Y, the matrix of those rows, has row j
    L * nu*(y_j); _x_value_rows gives the rows L * nu(x_i) = row i of A Y
    over the same L, and checks nu(x_i) > 0 first.  Both are integers,
    with no rational arithmetic and no coordinates in big's basis.
    Quotient still checks that big and small have the same rational span
    (finite index, InfiniteIndex).

    Each label is one Hermite reduction of the integer row sigma Y =
    L * phi(sigma).  That row is not computed: labelled_parallelepiped
    builds x Y over its whole box, one integer list per column of Y, x the
    box point that sigma represents, and labels it instead, by one
    label_columns call on those lists.  This is exact.
    sigma = x - sum_i q_i (row i of A) for integers q_i, so sigma Y - x Y
    = -sum_i q_i L nu(x_i), which lies in L * small; label_columns, which
    reduces through the Hermite basis of L * small, gives x Y and sigma Y
    the same canonical representative.
    """
    me = ssm.extension
    _, x_rows = _x_value_rows(me)  # NonPositiveValue unless nu(x_i) > 0
    quotient = Quotient(ValueGroup(me.structure, me.y_values), x_rows)
    factors = quotient_invariants(me.t_submatrix())
    e = prod(factors)
    if quotient.index != e:
        raise HypothesisA6Failed(
            f"|det A| = {e} but subgroup index is {quotient.index}")
    pb, label_rows = labelled_parallelepiped(
        me.A.entries, me._value_rows[1], quotient.label_columns)
    return CosetSystem(
        extension=me,
        e=e,
        lattice_points=pb.points,
        label_rows=label_rows,
        invariant_factors=factors,
        big_group=quotient.big,
        quotient=quotient,
        parallelepiped=pb,
    )
