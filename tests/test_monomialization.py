import dataclasses
import random
import time
from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest
from test_golden_reports import ladder_scenario
from test_monomial_extension import random_valued_extension
from test_graded_algebra import (
    basis_labels,
    galois_character,
    quotient_group_elements,
)

from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names
from gradedval import monomialization
from gradedval.errors import (
    EnumerationOverflow,
    HypothesisA6Failed,
    InvalidExtension,
    MalformedStep,
    NoNonnegativeLift,
    NonPositiveValue,
    NotAlongValuation,
    NotTheorem48Form,
)
from gradedval.exact_lattice import (
    ExactMatrix,
    adjugate,
    determinant,
    in_column_lattice,
    smith_normal_form,
)
from gradedval.graded_algebra import (
    GradedModule,
    fixed_by_all_characters,
    invariant_part,
    is_sigma_trivial,
)
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
    induced_x_values,
    validate,
)
from gradedval.monomialization import (
    TransformStep,
    apply_step,
    coset_system,
    replay,
    strong_monomialize,
)
from gradedval.ordered_groups import (
    Block,
    GroupElement,
    GroupStructure,
    Quotient,
    ValueGroup,
    generator_rows,
    quotient_invariant_factors,
)
from gradedval.scenarios import (
    Scenario,
    _run_extension_case,
    load_scenario,
    random_extension_bounded,
    run_pipeline,
)
from gradedval.serialize import load_json


def two_block_extension(A_rows):
    """r=2 blocks of sizes (2, 1), one T-variable each: T = {0, 2}."""
    blocks = BlockStructure(r=2, t=(2, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    values = (
        structure.element(((1,), (0,))),
        structure.element(((1,), (0,))),
        structure.element(((0,), (1,))),
    )
    return MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows(A_rows),
        unit_markers=("1",) * 3,
        y_values=values,
    )


def test_hand_example_single_row_transform():
    # x_1 = y_1 * y_2 with invertible tail: one row transform suffices
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    trace = strong_monomialize(me)
    kinds = [s.kind for s in trace.steps]
    assert kinds == ["r", "rescale"]
    assert trace.steps[0].exponents == ((2, 1),)
    assert trace.final.extension.A.entries == ExactMatrix.identity(3).entries
    assert trace.final.extension.y_values == me.y_values


def test_hand_example_needs_substitution():
    # x_2 = y_2^2 blocks a direct lift: one substitution y_1 = y'_1 y_2
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    trace = strong_monomialize(me)
    kinds = [s.kind for s in trace.steps]
    assert kinds == ["s", "r", "rescale"]
    s_step = trace.steps[0]
    assert (s_step.row, s_step.target) == (1, 2)
    assert s_step.blocks == (1, 2, 2, 1)
    final = trace.final.extension
    assert final.A.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    # the substituted variable's value dropped by nu(y_2)
    assert final.y_values[1].flat() == (1, -1)
    assert final.y_values[0] == me.y_values[0]
    assert final.y_values[2] == me.y_values[2]


def test_replay_reproduces_final():
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    trace = strong_monomialize(me)
    redone = replay(trace.initial, trace.steps)
    assert redone.A.entries == trace.final.extension.A.entries
    assert redone.y_values == trace.final.extension.y_values
    assert redone.unit_markers == trace.final.extension.unit_markers


def test_already_strong_form_yields_empty_trace():
    me = two_block_extension([[2, 0, 1], [0, 1, 0], [0, 0, 3]])
    trace = strong_monomialize(me)
    assert trace.steps == ()
    assert trace.final.extension is me


def test_s_transform_requires_later_block():
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(NotAlongValuation):
        apply_step(me, TransformStep(kind="s", row=2, target=0))


def replay_oracle(initial, steps):
    """replay as a fold of apply_step: one extension built per step, the
    way traces were replayed before bursts."""
    me = initial
    for step in steps:
        me = apply_step(me, step)
    return me


def test_burst_replays_like_single_steps():
    # x_2 = y_2^9: the lift needs b = 8, one burst of eight substitutions
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 9]])
    trace = strong_monomialize(me)
    assert [s.kind for s in trace.steps] == ["s"] * 8 + ["r", "rescale"]
    assert len(set(trace.steps[:8])) == 1
    final = trace.final.extension
    assert final.A.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 9))
    assert final.y_values[1].flat() == (1, -8)
    assert replay(me, trace.steps) == replay_oracle(me, trace.steps) == final


def test_strong_monomialize_takes_its_final_form_from_replay(monkeypatch):
    # replay is the one driver of the rewrite: strong_monomialize records
    # its steps, makes no _Rewrite of its own, and replays them once
    events = []
    real_replay = monomialization.replay

    def replaying(initial, steps):
        events.append("replay")
        return real_replay(initial, steps)

    class Rewrite(monomialization._Rewrite):
        def __init__(self, me):
            events.append("rewrite")
            super().__init__(me)

    monkeypatch.setattr(monomialization, "replay", replaying)
    monkeypatch.setattr(monomialization, "_Rewrite", Rewrite)
    for g in (1, 2, 9, 40):
        me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, g]])
        events.clear()
        trace = strong_monomialize(me)
        assert trace.steps
        assert events == ["replay", "rewrite"]
    events.clear()
    trace = strong_monomialize(
        two_block_extension([[2, 0, 1], [0, 1, 0], [0, 0, 3]]))
    assert trace.steps == () and events == ["replay"]


def count_checks(monkeypatch):
    """The step kinds _check_steps tests, one per step it checks."""
    checked = []

    class Kinds(tuple):
        def __contains__(self, kind):
            checked.append(kind)
            return super().__contains__(kind)

    monkeypatch.setattr(monomialization, "STEP_KINDS",
                        Kinds(monomialization.STEP_KINDS))
    return checked


def test_check_steps_checks_one_object_per_burst(monkeypatch):
    # x_2 = y_2^40: one burst of 39 substitutions, recorded as one step
    # object repeated, so replay checks 3 step objects, not 41 steps
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 40]])
    trace = strong_monomialize(me)
    steps = trace.steps
    assert [s.kind for s in steps] == ["s"] * 39 + ["r", "rescale"]
    checked = count_checks(monkeypatch)
    assert replay(me, steps) == trace.final.extension
    assert checked == ["s", "r", "rescale"]
    # equal steps that are separate objects, as decoded ones are, are
    # each checked: a row 1.0 after row 1 is refused, though 1.0 == 1
    checked.clear()
    copies = [dataclasses.replace(step) for step in steps]
    assert replay(me, copies) == trace.final.extension
    assert len(checked) == len(steps)
    tampered = list(steps)
    tampered[1] = dataclasses.replace(steps[0], row=1.0)
    assert tampered[1] == steps[0]
    with pytest.raises(MalformedStep):
        replay(me, tampered)


def test_replay_matches_step_fold_on_random_traces():
    rng = random.Random(2025)
    for _ in range(60):
        me = random_extension(rng)
        trace = strong_monomialize(me)
        assert replay(me, trace.steps) == replay_oracle(me, trace.steps)


def test_empty_trace_replays_to_initial_itself():
    me = two_block_extension([[2, 0, 1], [0, 1, 0], [0, 0, 3]])
    assert replay(me, ()) is me


def valued_extension(v1, v2):
    """two_block_extension with nu(y_1) = v1 and nu(y_2) = v2, first block
    coordinates; replay does not re-check the values of its input."""
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    structure = me.structure
    return MonomialExtension(
        blocks=me.blocks, A=me.A, unit_markers=me.unit_markers,
        y_values=(me.y_values[0], structure.element(((v1,), (0,))),
                  structure.element(((v2,), (0,)))))


@pytest.mark.parametrize("v1, v2", [
    (3, 1),     # the last of three substitutions reaches nu(y'_1) = 0
    (-2, -1),   # nu(y_2) < 0: the first one fails, the last would not
])
def test_tampered_burst_raises_like_single_steps(v1, v2):
    me = valued_extension(v1, v2)
    steps = (TransformStep(kind="s", row=1, target=2),) * 3
    with pytest.raises(NotAlongValuation) as burst:
        replay(me, steps)
    with pytest.raises(NotAlongValuation) as single:
        replay_oracle(me, steps)
    assert str(burst.value) == str(single.value)
    assert "y'_1" in str(burst.value)


def burst_oracle(values, m, c, reps):
    """nu(y'_m) after reps substitutions y_m = y'_m * y_c, by GroupElement
    arithmetic as the burst was first decided: positive at the end where
    it is least, k = reps when nu(y_c) > 0, else k = 1."""
    ym, yc = values[m], values[c]
    least = reps if yc.sign() > 0 else 1
    value = ym - yc.scale(least)
    if value.sign() <= 0:
        raise NotAlongValuation(
            f"value of y'_{m} would not be strictly positive")
    return value if least == reps else ym - yc.scale(reps)


def test_integer_bursts_match_group_element_arithmetic():
    # bursts on integer rows against GroupElement arithmetic, on values
    # over rational, sqrt(2) and sqrt(3) blocks, some of them negated and
    # nu(y_m) often moved to the level of nu(y_c), where the sign of
    # nu(y_m) - k nu(y_c) turns with k
    rng = random.Random(1213)
    outcomes, quads, denominators = set(), set(), set()
    while len(outcomes) < 3 or rng.random() < 0.995:
        me = random_valued_extension(rng)
        bs = me.blocks
        pairs = [(m, c) for m in range(bs.n) for c in bs.t_indices()
                 if bs.block_of(m) < bs.block_of(c)]
        if not pairs:
            continue
        m, c = rng.choice(pairs)
        values = [-v if rng.random() < 0.3 else v for v in me.y_values]
        if rng.random() < 0.6:
            values[m] = (values[c].scale(Fraction(rng.randint(-9, 9), 2))
                         + rng.choice(values).scale(Fraction(1, 3)))
        values = tuple(values)
        me = MonomialExtension(blocks=bs, A=me.A,
                               unit_markers=me.unit_markers,
                               y_values=values)
        reps = rng.randint(1, 6)
        steps = (TransformStep(kind="s", row=m, target=c),) * reps
        try:
            expected = burst_oracle(values, m, c, reps)
        except NotAlongValuation as refusal:
            with pytest.raises(NotAlongValuation) as info:
                replay(me, steps)
            assert str(info.value) == str(refusal)
            # refused though the last single step would have kept it > 0
            turned = (values[m] - values[c].scale(reps)).sign() > 0
            outcomes.add("turned" if turned else "refused")
        else:
            redone = replay(me, steps)
            assert redone.y_values[m] == expected
            assert redone.y_values[:m] + redone.y_values[m + 1:] == \
                values[:m] + values[m + 1:]
            # the rows the rewrite hands over are those of the new values,
            # over their least common denominator
            fresh = MonomialExtension(
                blocks=bs, A=redone.A, unit_markers=redone.unit_markers,
                y_values=redone.y_values)
            assert redone.__dict__["_value_rows"] == fresh._value_rows
            denominators.add(fresh._value_rows[0])
            outcomes.add("done")
        quads |= {b.quad for b in me.structure.blocks}
    assert quads == {None, 2, 3} and max(denominators) > 1


def test_positive_burst_matches_single_steps():
    # nu(y_2) < 0 and every substitution stays positive
    me = valued_extension(1, -1)
    steps = (TransformStep(kind="s", row=1, target=2),) * 3
    assert replay(me, steps) == replay_oracle(me, steps)
    assert replay(me, steps).y_values[1].flat() == (4, 0)


@pytest.mark.parametrize("step", [
    TransformStep(kind="zap", row=0),
    TransformStep(kind="r", row=99, exponents=((2, 1),)),
    TransformStep(kind="s", row=-1, target=2),
    TransformStep(kind="s", row=1, target=None),
    TransformStep(kind="rescale", row=-1),
    TransformStep(kind="r", row=1, exponents=((-1, 1),)),
    TransformStep(kind="r", row=1, exponents=((2, 1.5),)),
    TransformStep(kind="r", row=1, exponents=((2, Fraction(1, 2)),)),
    TransformStep(kind="r", row=1, exponents=((2, "1"),)),
    TransformStep(kind="r", row=1, exponents=((2, True),)),
])
def test_malformed_steps_are_rejected_before_any_is_applied(step):
    # the first step would raise NotAlongValuation if it were applied
    me = valued_extension(1, 1)
    steps = (TransformStep(kind="s", row=1, target=2), step)
    with pytest.raises(MalformedStep):
        replay(me, steps)
    with pytest.raises(MalformedStep):
        apply_step(me, step)


def count_builds(monkeypatch):
    built = []
    real = MonomialExtension.__post_init__

    def counting(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(MonomialExtension, "__post_init__", counting)
    return built


def test_one_extension_built_per_trace(monkeypatch):
    extensions = [two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, g]])
                  for g in (2, 9, 40)]
    extensions += [me for _, me in ladder_scenario().extensions]
    built = count_builds(monkeypatch)
    longest = 0
    for me in extensions:
        built.clear()
        trace = strong_monomialize(me)
        # an extension already in strong form is returned as it is
        expected = 1 if trace.steps else 0
        assert len(built) == expected
        built.clear()
        assert replay(me, trace.steps) == trace.final.extension
        assert len(built) == expected
        longest = max(longest, len(trace.steps))
    assert longest >= 40


def unit_t_values(blocks):
    structure = GroupStructure(tuple(Block() for _ in range(blocks.r)))
    return tuple(
        structure.element(tuple((1,) if k == b else (0,)
                                for k in range(blocks.r)))
        for b in range(blocks.r))


def compatible_extension(t, s, rows):
    blocks = BlockStructure(r=len(t), t=t, s=s)
    A = ExactMatrix.from_rows(rows)
    return MonomialExtension(
        blocks=blocks, A=A, unit_markers=("1",) * blocks.n,
        y_values=compatible_values(blocks, A, unit_t_values(blocks)))


def test_lift_search_picks_smallest_b_not_greedy():
    # greedy forward substitution would pick b = (0, 4)
    me = compatible_extension((2, 1, 1), (1, 1, 1), [
        [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 5]])
    trace = strong_monomialize(me)
    assert [(s.kind, s.row, s.target) for s in trace.steps] == [
        ("s", 1, 2), ("r", 1, None), ("rescale", 1, None)]


def test_lift_search_is_budgeted():
    # the unbudgeted search tried 11,505,047 candidates on row 1 of this
    # matrix (98 s) before it found a lift
    me = compatible_extension((2, 1, 1, 2, 1), (1, 1, 1, 1, 1), [
        [7, 0, 3, 0, 1, 0, 6], [0, 1, 9, 9, 3, 0, 7],
        [0, 0, 1, 8, 4, 0, 5], [0, 0, 0, 2, 4, 0, 1],
        [0, 0, 0, 0, 8, 0, 7], [0, 0, 0, 0, 0, 1, 3],
        [0, 0, 0, 0, 0, 0, 1]])
    start = time.monotonic()
    with pytest.raises(EnumerationOverflow, match="row 1"):
        strong_monomialize(me)
    assert time.monotonic() - start < 5


def test_lift_budget_counts_candidates(monkeypatch):
    # b = (1, 0) is the third candidate, after (0, 0) and (0, 1)
    me = compatible_extension((2, 1, 1), (1, 1, 1), [
        [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 5]])
    monkeypatch.setattr(monomialization, "_SEARCH_BUDGET", 2)
    with pytest.raises(EnumerationOverflow):
        strong_monomialize(me)
    monkeypatch.setattr(monomialization, "_SEARCH_BUDGET", 3)
    assert len(strong_monomialize(me).steps) == 3


def graded_vectors(length, bound):
    """Nonnegative integer vectors ordered by total then lexicographically,
    each entry at most bound: the lift search's candidate order, listed
    outright."""
    for total in range(bound * length + 1):
        yield from compositions(total, length, bound)


def compositions(total, length, bound):
    if length == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(min(total, bound) + 1):
        for rest in compositions(total - first, length - 1, bound):
            yield (first,) + rest


def lift_oracle(det, adj, h, bound):
    """(index, b, c) of the first b of graded_vectors with c = adj (h + b)
    / det a nonnegative integer vector, one full product adj (h + b) per
    candidate; (candidate count, None, None) when no b lifts."""
    count = 0
    for index, b in enumerate(graded_vectors(len(h), bound)):
        num = adj.apply(tuple(x + y for x, y in zip(h, b)))
        if all(x % det == 0 and x // det >= 0 for x in num):
            return index, b, tuple(x // det for x in num)
        count = index + 1
    return count, None, None


def test_lift_search_matches_graded_oracle(monkeypatch):
    # the carried numerators against a full product per candidate: the
    # same (b, c), the same refusal, and the budget met at the same
    # candidate, for k = 1..4 and both signs of det
    rng = random.Random(4711)
    seen = set()
    for _ in range(240):
        k = rng.randint(1, 4)
        while True:
            sub = ExactMatrix(tuple(
                tuple(rng.choice((0, 0, 1, 1, 2, 3, -1)) for _ in range(k))
                for _ in range(k)))
            if determinant(sub):
                break
        det, adj = adjugate(sub.transpose())
        h = [rng.randint(0, 3) for _ in range(k)]
        bound = rng.randint(1, 3)
        index, b, c = lift_oracle(det, adj, h, bound)
        monkeypatch.setattr(monomialization, "_SEARCH_BUDGET", 100_000)
        if b is None:
            with pytest.raises(NoNonnegativeLift) as info:
                monomialization._lift(5, det, adj, h, bound)
            assert str(info.value) == (
                f"no nonnegative lift for row 5 within exponent bound "
                f"{bound}")
            # a budget of every candidate is not exhausted, one less is
            monkeypatch.setattr(monomialization, "_SEARCH_BUDGET", index)
            with pytest.raises(NoNonnegativeLift):
                monomialization._lift(5, det, adj, h, bound)
            overflow_at = index - 1
        else:
            assert monomialization._lift(5, det, adj, h, bound) == (b, c)
            monkeypatch.setattr(monomialization, "_SEARCH_BUDGET",
                                index + 1)
            assert monomialization._lift(5, det, adj, h, bound) == (b, c)
            overflow_at = index
        monkeypatch.setattr(monomialization, "_SEARCH_BUDGET", overflow_at)
        with pytest.raises(EnumerationOverflow) as info:
            monomialization._lift(5, det, adj, h, bound)
        assert str(info.value) == (
            f"lift search for row 5 exhausted its budget of {overflow_at} "
            f"candidates")
        seen.add((k, det > 0, b is None))
    assert {(k, positive) for k, positive, _ in seen} == {
        (k, positive) for k in range(1, 5) for positive in (True, False)}
    assert {(k, none) for k, _, none in seen} == {
        (k, none) for k in range(1, 5) for none in (True, False)}


def test_rejects_invalid_extension():
    me = two_block_extension([[1, 0, 0], [0, 2, 1], [0, 0, 1]])
    with pytest.raises(NotTheorem48Form):
        strong_monomialize(me)


def is_theorem48_row(me, m):
    """Non-T row: own variable once plus later-block T-exponents only.

    The row shape strong_monomialize needs, decided on its own: the
    reference for validate's zero_pattern rule on non-T rows."""
    bs = me.blocks
    if me.A[m, m] != 1:
        return False
    for j in range(bs.n):
        if j == m:
            continue
        if me.A[m, j] and not (bs.is_t_index(j)
                               and bs.block_of(j) > bs.block_of(m)):
            return False
    return True


def random_block_extension(rng):
    """Random blocks and exponents, mostly but not always in shape.

    Block b has rational rank s_b <= 2 (a sqrt(2) weight when 2), its
    T-variables take the block's independent unit values and its other
    variables the first of them, so the values pass validate; each entry
    is 0 with probability 0.6, else one of -1, 1, 2, 3, and the diagonal
    of a non-T row is 1 with probability 0.8."""
    r = rng.randint(1, 3)
    t = tuple(rng.randint(1, 3) for _ in range(r))
    s = tuple(rng.randint(1, min(ti, 2)) for ti in t)
    blocks = BlockStructure(r=r, t=t, s=s)
    structure = GroupStructure(tuple(Block(quad=2 if sb == 2 else None)
                                     for sb in s))

    def unit(b, k):
        return structure.element(tuple(
            tuple(int(c == b and i == k) for i in range(s[c]))
            for c in range(r)))

    values = []
    for j in range(blocks.n):
        b = blocks.block_of(j)
        k = j - blocks.offset(b)
        values.append(unit(b, k if k < s[b] else 0))
    rows = [[0 if rng.random() < 0.6 else rng.choice((-1, 1, 2, 3))
             for _ in range(blocks.n)] for _ in range(blocks.n)]
    for m in range(blocks.n):
        if not blocks.is_t_index(m) and rng.random() < 0.8:
            rows[m][m] = 1
    return MonomialExtension(blocks=blocks, A=ExactMatrix.from_rows(rows),
                             unit_markers=("1",) * blocks.n,
                             y_values=tuple(values))


def test_validate_decides_the_theorem48_row_shape():
    # strong_monomialize checks no row after validate: a non-T row with no
    # zero_pattern or negative_exponent violation is in Theorem-4.8 shape,
    # so every row of a valid extension is
    rng = random.Random(48)
    valid = rejected_rows = 0
    for _ in range(3000):
        me = random_block_extension(rng)
        problems = validate(me)
        shape = {v.location[0] for v in problems
                 if v.kind in ("zero_pattern", "negative_exponent")}
        t_set = set(me.blocks.t_indices())
        for m in range(me.blocks.n):
            if m in t_set:
                continue
            if m not in shape:
                assert is_theorem48_row(me, m), (me.A.entries, m)
            rejected_rows += not is_theorem48_row(me, m)
        if not problems:
            valid += 1
            strong_monomialize(me)
    # the draws reach both sides of the predicate
    assert valid >= 50 and rejected_rows >= 50


def compatible_values(blocks, A, t_values):
    """Value assignment whose relation lattice lies inside A^t Z^n.

    T-variables get the supplied independent values; a non-T variable m in
    block b gets sum_{j in T} (A[t_b][j] - A[m][j]) * nu(y_j), which encodes
    the relation A^t(e_{t_b} - e_m) and keeps the quotient of value groups
    isomorphic to Z^n / A^t Z^n.
    """
    tlist = blocks.t_indices()
    values = {}
    for j, v in zip(tlist, t_values):
        values[j] = v
    structure = t_values[0].structure
    for m in range(blocks.n):
        if m in values:
            continue
        tb = blocks.offset(blocks.block_of(m))
        v = structure.zero()
        for j in tlist:
            c = A[tb, j] - A[m, j]
            if c:
                v = v + values[j].scale(c)
        values[m] = v
    return tuple(values[j] for j in range(blocks.n))


def a6_extension(A_rows):
    """Two-block extension whose values satisfy both coset hypotheses."""
    blocks = BlockStructure(r=2, t=(2, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    A = ExactMatrix.from_rows(A_rows)
    t_values = (structure.element(((1,), (0,))),
                structure.element(((0,), (1,))))
    return MonomialExtension(
        blocks=blocks,
        A=A,
        unit_markers=("1",) * 3,
        y_values=compatible_values(blocks, A, t_values),
    )


def random_extension(rng):
    """Random valid extension, rank-1 blocks, in the supported row shape."""
    r = rng.randint(1, 3)
    t = tuple(rng.randint(1, 2) for _ in range(r))
    blocks = BlockStructure(r=r, t=t, s=(1,) * r)
    structure = GroupStructure(tuple(Block() for _ in range(r)))
    t_values = tuple(
        structure.element(tuple((1,) if k == b else (0,) for k in range(r)))
        for b in range(r))
    tlist = blocks.t_indices()
    rows = [[0] * blocks.n for _ in range(blocks.n)]
    for i in range(blocks.n):
        bi = blocks.block_of(i)
        if blocks.is_t_index(i):
            rows[i][i] = rng.randint(1, 3)
            for j in tlist:
                if blocks.block_of(j) > bi:
                    rows[i][j] = rng.randint(0, 2)
        else:
            rows[i][i] = 1
            for j in tlist:
                if blocks.block_of(j) > bi:
                    rows[i][j] = rng.randint(0, 3)
    A = ExactMatrix.from_rows(rows)
    return MonomialExtension(
        blocks=blocks,
        A=A,
        unit_markers=("1",) * blocks.n,
        y_values=compatible_values(blocks, A, t_values),
    )


def test_random_extensions_monomialize():
    rng = random.Random(2024)
    for _ in range(60):
        me = random_extension(rng)
        trace = strong_monomialize(me)
        final = trace.final.extension
        # column/row transforms preserve both determinants
        assert determinant(final.A) == determinant(me.A)
        assert adjoint_relations(me).e == adjoint_relations(final).e
        assert final.t_submatrix().entries == me.t_submatrix().entries
        redone = replay(trace.initial, trace.steps)
        assert redone.A.entries == final.A.entries
        assert redone.y_values == final.y_values


def test_coset_system_hand_example():
    me = a6_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    cs = coset_system(strong_monomialize(me).final)
    assert cs.e == 2
    assert cs.lattice_points == ((0, 0, 0), (0, 0, 1))
    assert len(set(l.flat() for l in cs.labels)) == 2
    assert cs.invariant_factors == (2,)
    # the trivial coset comes from sigma = 0
    assert cs.labels[0].flat() == (0, 0)


def test_coset_system_identity():
    me = a6_extension([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cs = coset_system(SSMForm(me))
    assert cs.e == 1
    assert cs.lattice_points == ((0, 0, 0),)
    assert cs.invariant_factors == ()


def test_coset_system_detects_index_mismatch():
    # duplicate values make the y-group too small for |det A| = 2
    blocks = BlockStructure(r=1, t=(2,), s=(1,))
    structure = GroupStructure((Block(),))
    one = structure.element(((1,),))
    me = MonomialExtension(
        blocks=blocks,
        A=ExactMatrix.from_rows([[2, 0], [0, 1]]),
        unit_markers=("1", "1"),
        y_values=(one, one),
    )
    with pytest.raises(HypothesisA6Failed):
        coset_system(SSMForm(me))


def test_coset_labels_classify_values():
    me = a6_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    cs = coset_system(strong_monomialize(me).final)
    # each lattice point's value reduces to its own label
    from gradedval.ordered_groups import coset_label
    small = small_group_of(cs)
    for sigma, lbl in zip(cs.lattice_points, cs.labels):
        assert coset_label(value_of(cs.extension, sigma), cs.big_group,
                           small) == lbl


def test_random_coset_systems():
    rng = random.Random(7)
    done = 0
    while done < 15:
        me = random_extension(rng)
        trace = strong_monomialize(me)
        e = abs(determinant(trace.final.extension.A))
        if e > 12:
            continue
        cs = coset_system(trace.final)
        assert cs.e == e
        assert len(cs.lattice_points) == e
        assert len(set(l.flat() for l in cs.labels)) == e
        done += 1


def value_of(me, b):
    """sum_j b_j nu*(y_j)."""
    gamma = me.structure.zero()
    for bj, y in zip(b, me.y_values):
        gamma = gamma + y.scale(bj)
    return gamma


def small_group_of(cs):
    """The value group of x, generated by the nu(x_i)."""
    me = cs.extension
    return ValueGroup(me.structure, induced_x_values(me))


def a7_oracle(cs):
    """The sampled hypothesis-A7 checks coset_system ran before A6 was
    shown to imply them, kept as a brute-force oracle.

    On a spanning sample (and every vector of [-2, 2]^n when n <= 3), b
    lies in A^t Z^n exactly when sum_j b_j nu*(y_j) lies in the small
    group; big/small has the invariant factors of Z^n / A^t Z^n; the e
    lattice points get e distinct labels, each in the coset of its value
    and unchanged by adding a generator of the small group.
    """
    me = cs.extension
    small = small_group_of(cs)
    n = me.blocks.n
    At = me.A.transpose()
    samples = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    samples += [tuple(row[j] for row in At.entries) for j in range(n)]
    if n <= 3:
        samples += product(range(-2, 3), repeat=n)
    for b in samples:
        assert small.contains(value_of(me, b)) == \
            in_column_lattice(cs.snf_at, b), b
    assert quotient_invariant_factors(cs.big_group, small) == \
        cs.invariant_factors
    assert len({lbl.flat() for lbl in cs.labels}) == cs.e
    for sigma, lbl in zip(cs.lattice_points, cs.labels):
        val = value_of(me, sigma)
        assert small.contains(val - lbl)
        for s in small.generators:
            assert cs.quotient.label(val + s) == lbl


def test_a7_oracle_on_bundled_scenarios():
    systems = 0
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        for _, me in scenario.extensions:
            a7_oracle(coset_system(strong_monomialize(me).final))
            systems += 1
    assert systems == 22


def test_a7_oracle_on_golden_ladder():
    for _, me in ladder_scenario().extensions:
        a7_oracle(coset_system(strong_monomialize(me).final))


def coset_system_oracle(cs, character_limit=64):
    """What coset_system takes from the parallelepiped and the integer
    value map, recomputed independently: the Smith form of A^t, e = |det A|;
    each label read from its integer row against the quotient's reduction
    of sigma's value, a Fraction sum of scaled y-values (value_of); the
    proven invariant
    part against the Smith-residue membership test of every basis label;
    and (for e up to the limit) the cone test of fixed_by_all_characters
    at the lattice points against the Fraction walk over the Smith
    residues."""
    me = cs.extension
    assert cs.snf_at == smith_normal_form(me.A.transpose())
    assert cs.e == abs(determinant(me.A))
    assert cs.labels == tuple(cs.quotient.label(value_of(me, s))
                              for s in cs.lattice_points)
    assert induced_x_values(me) == tuple(value_of(me, row)
                                         for row in me.A.entries)
    for f in (1, 2):
        mod = GradedModule(system=cs, residue_degree=f)
        assert invariant_part(mod) == tuple(
            lbl for lbl in basis_labels(mod)
            if is_sigma_trivial(cs, lbl.sigma))
    if cs.e > character_limit:
        return
    mod = GradedModule(system=cs, residue_degree=1)
    reps = quotient_group_elements(cs)
    assert len(reps) == cs.e
    for sigma in cs.lattice_points:
        walk = all(galois_character(cs, g, sigma) == 0 for g in reps)
        assert fixed_by_all_characters(mod, sigma) == walk


def test_coset_system_oracle_on_bundled_scenarios():
    systems = 0
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        for _, me in scenario.extensions:
            coset_system_oracle(coset_system(strong_monomialize(me).final))
            systems += 1
    assert systems == 22


def test_coset_system_oracle_on_golden_ladder():
    for _, me in ladder_scenario().extensions:
        coset_system_oracle(coset_system(strong_monomialize(me).final))


def bundled_extensions():
    """Every extension of the bundled corpus."""
    out = []
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        out += [me for _, me in scenario.extensions]
    return out


def corpus_extensions():
    """Every extension of the bundled corpus, then 20 seeded ones."""
    rng = random.Random(11)
    return bundled_extensions() + [random_extension(rng) for _ in range(20)]


def test_quotient_from_coordinate_rows_matches_generators():
    # coset_system builds the quotient from the rows of A Y, Y the value
    # rows; built from small's generators it is the same quotient
    for me in corpus_extensions():
        cs = coset_system(strong_monomialize(me).final)
        final = cs.extension
        small = ValueGroup(final.structure, induced_x_values(final))
        q = Quotient(cs.big_group, generator_rows(cs.big_group, small))
        assert cs.quotient.hnf == q.hnf
        assert cs.quotient.index == q.index == cs.e


def test_coset_system_reads_y_coordinates_from_integer_rows(monkeypatch):
    # the walk carries the value matrix's own rows: no y-value is scaled
    # again through its Fractions, and no row but the quotient's Hermite
    # rows, checked to lie in big, is put in coordinates of big's basis
    def refuse(self, gamma):
        raise AssertionError("ValueGroup.coordinates called")

    real = ValueGroup.row_coordinates
    seen = []

    def spy(self, row):
        seen.append(tuple(row))
        return real(self, row)

    monkeypatch.setattr(ValueGroup, "coordinates", refuse)
    monkeypatch.setattr(ValueGroup, "row_coordinates", spy)
    for me in corpus_extensions():
        seen.clear()
        cs = coset_system(strong_monomialize(me).final)
        assert seen == list(cs.quotient.hnf)


def test_pipeline_case_reads_value_signs_off_integer_rows(monkeypatch):
    # values_positive reads the final form's value rows with row_sign, as
    # validate does: no group element is asked for its sign
    def refuse(self):
        raise AssertionError("GroupElement.sign called")

    extensions = corpus_extensions() + [
        me for _, me in ladder_scenario().extensions]
    monkeypatch.setattr(GroupElement, "sign", refuse)
    for f in (1, 2):
        report = run_pipeline(Scenario(
            name="signs", residue_degree=f, semigroup=None, records=(),
            expect={}, extensions=tuple(
                (str(k), me) for k, me in enumerate(extensions))))
        assert report["ok"]
        for case in report["cases"]:
            assert {"name": "values_positive", "passed": True} in \
                case["checks"]


def test_unchecked_extension_matrices_equal_checked_ones(monkeypatch):
    # t_submatrix, g_block, the rewrite's build, the sign-adjusted
    # adjugate and the lift search's sub-matrix skip the entry check;
    # what they build is what the checked constructor would
    def check(m):
        assert all(type(row) is tuple for row in m.entries)
        assert all(type(x) is int for row in m.entries for x in row)
        assert m == ExactMatrix(m.entries)

    real = monomialization.adjugate
    lifted = []

    def checking(W):
        check(W)
        lifted.append(W)
        return real(W)

    monkeypatch.setattr(monomialization, "adjugate", checking)
    for me in corpus_extensions():
        trace = strong_monomialize(me)
        for ext in (me, trace.final.extension,
                    replay(me, trace.steps)):
            check(ext.A)
            check(ext.t_submatrix())
            check(adjoint_relations(ext).B)
            for b in range(ext.blocks.r):
                check(ext.g_block(b))
    assert lifted


def test_nonpositive_x_value_is_refused_before_the_parallelepiped(
        monkeypatch):
    ssm = strong_monomialize(
        a6_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])).final
    me = ssm.extension
    # a valid extension has every nu(x_i) > 0; negate the y-values after
    # the form is checked, and drop their cached integer rows, to reach
    # the check coset_system still makes
    object.__setattr__(me, "y_values", tuple(-v for v in me.y_values))
    me.__dict__.pop("_value_rows", None)
    walked = []
    monkeypatch.setattr(monomialization, "labelled_parallelepiped",
                        lambda rows, M, label: walked.append(rows))
    with pytest.raises(NonPositiveValue) as info:
        coset_system(ssm)
    assert str(info.value) == "nu(x_0) is not strictly positive"
    assert walked == []
    with pytest.raises(NonPositiveValue) as again:
        induced_x_values(me)
    assert str(again.value) == str(info.value)


def pipeline_extension(g):
    """t = (3, 2) blocks (the smallest ladder rung's) with T-diagonal g.

    Rows 1 and 2 carry g[1] on the second block's T-column, a multiple of
    its diagonal, so monomialization takes the same steps for every g."""
    blocks = BlockStructure(r=2, t=(3, 2), s=(1, 1))
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = g[i // 3] if i in (0, 3) else 1
    rows[0][3], rows[1][3], rows[2][3] = 1, g[1], 2 * g[1]
    A = ExactMatrix.from_rows(rows)
    structure = GroupStructure((Block(), Block()))
    t_values = (structure.element(((1,), (1,))),
                structure.element(((0,), (1,))))
    return MonomialExtension(blocks=blocks, A=A, unit_markers=("1",) * 5,
                             y_values=compatible_values(blocks, A, t_values))


def test_group_elements_built_do_not_grow_with_e(monkeypatch):
    # labels and values stay integer rows up to the report, so one
    # pipeline run builds as many elements at e = 200 as at e = 25
    built = []
    real = GroupElement.__init__

    def counting(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    counts = {}
    for g in ((5, 5), (10, 20)):
        scenario = Scenario(name="count", extensions=(
            ("count", pipeline_extension(g)),), residue_degree=1,
            semigroup=None, records=(), expect={})
        built.clear()
        report = run_pipeline(scenario)
        assert report["ok"]
        assert report["cases"][0]["e"] == str(g[0] * g[1])
        counts[g] = (len(built), report["cases"][0]["steps"])
    assert counts[(5, 5)] == counts[(10, 20)]


def test_extension_cases_build_no_fraction(monkeypatch):
    # a group value is an integer row over its denominator from decoding
    # to the report: once the corpus is decoded, its extension cases build
    # no Fraction (34 when an element held a tuple of Fractions)
    cases = []
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        cases += [(label, me, scenario.residue_degree)
                  for label, me in scenario.extensions]
    assert len(cases) == 22
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    reports = [_run_extension_case(*case) for case in cases]
    monkeypatch.undo()
    assert [report["ok"] for report in reports] == [True] * 22
    assert built == []


def rebuilt(me):
    """A fresh copy of me through the checked constructors: nothing that
    me has cached (its _violations or _value_rows) carries over."""
    return MonomialExtension(
        blocks=BlockStructure(r=me.blocks.r, t=me.blocks.t, s=me.blocks.s),
        A=ExactMatrix(me.A.entries), unit_markers=me.unit_markers,
        y_values=me.y_values)


def test_final_form_validates_when_rebuilt():
    # strong_monomialize hands its final form _violations = () by proof;
    # validate on a rebuilt copy is the oracle for that proof
    extensions = bundled_extensions()
    assert len(extensions) == 22
    extensions += [me for _, me in ladder_scenario().extensions]
    rng = random.Random(26)
    extensions += [random_extension_bounded(rng, e_max=60)
                   for _ in range(40)]
    moved = 0
    for me in extensions:
        trace = strong_monomialize(me)
        final = trace.final.extension
        copy = rebuilt(final)
        assert "_violations" not in copy.__dict__
        assert validate(copy) == []
        assert copy == final
        moved += bool(trace.steps)
    assert moved >= 20


def test_one_lift_adjugate_per_block_with_an_offending_row(monkeypatch):
    # rows 1 and 2 offend in block 0, row 4 in block 1, block 2 has none:
    # two adjugates, not one per offending row
    me = compatible_extension((3, 2, 1), (1, 1, 1), [
        [2, 0, 0, 1, 0, 1], [0, 1, 0, 1, 0, 2], [0, 0, 1, 3, 0, 0],
        [0, 0, 0, 3, 0, 1], [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 0, 2]])
    real = monomialization.adjugate
    lifted = []

    def spy(W):
        lifted.append(W.entries)
        return real(W)

    monkeypatch.setattr(monomialization, "adjugate", spy)
    trace = strong_monomialize(me)
    assert lifted == [((3, 0), (1, 2)), ((2,),)]
    assert sorted({s.row for s in trace.steps}) == [1, 2, 4]
    assert validate(rebuilt(trace.final.extension)) == []


@pytest.mark.parametrize("wrong", [
    lambda b, c: (b, tuple(x + 1 for x in c)),
    lambda b, c: (tuple(0 for _ in b), c),
])
def test_a_wrong_lift_is_refused_by_the_strong_form(monkeypatch, wrong):
    # the final form skips validate, so SSMForm's unit-row check is what
    # refuses a lift that leaves row 1 off the unit row
    real = monomialization._lift
    monkeypatch.setattr(monomialization, "_lift",
                        lambda *args: wrong(*real(*args)))
    me = two_block_extension([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    with pytest.raises(InvalidExtension) as info:
        strong_monomialize(me)
    assert str(info.value) == "row 1 is not in strong monomial form"


def test_a_pipeline_case_validates_its_input_only(monkeypatch):
    real = MonomialExtension._violations.func
    seen = []

    def counting(self):
        seen.append(self)
        return real(self)

    spy = cached_property(counting)
    spy.__set_name__(MonomialExtension, "_violations")
    monkeypatch.setattr(MonomialExtension, "_violations", spy)
    for name in bundled_scenario_names():
        seen.clear()
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        report = run_pipeline(scenario)
        assert [case["ok"] for case in report["cases"]] == \
            [True] * len(scenario.extensions)
        assert [id(me) for me in seen] == \
            [id(me) for _, me in scenario.extensions]
