"""The parallelepiped walk that carries x M, its budgets and its memory.

coset_system used to walk the parallelepiped, then form sigma M for every
lattice point and reduce it with Quotient.label_row.  The walk now
carries x M for the box point x that sigma represents and labels that
row.  The old path lives on here as the oracle.
"""

import random
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from test_affine_monoids import full_cone, with_unit_coordinates
from test_monomialization import (
    corpus_extensions,
    pipeline_extension,
    random_extension,
    small_group_of,
    value_of,
)

from gradedval import affine_monoids, graded_algebra
from gradedval.affine_monoids import (
    labelled_parallelepiped,
    parallelepiped_points,
)
from gradedval.errors import EnumerationOverflow
from gradedval.exact_lattice import (
    ExactMatrix,
    determinant,
    hermite_row_basis,
)
from gradedval.graded_algebra import GradedModule
from gradedval.monomial_extension import (
    BlockStructure,
    MonomialExtension,
    validate,
)
from gradedval.monomialization import coset_system, strong_monomialize
from gradedval.ordered_groups import Block, GroupStructure
from gradedval.scenarios import Scenario, compatible_values, run_pipeline


def sigma_m_label_rows(cs):
    """The label rows by the old path: sigma M for each lattice point, M
    the coordinate rows of the y-values in big's lattice basis, then one
    Quotient.label_row each."""
    big = cs.big_group
    columns = tuple(zip(*(big.coordinates(y)
                          for y in cs.extension.y_values)))
    return tuple(
        cs.quotient.label_row([sum(map(mul, sigma, col)) for col in columns])
        for sigma in cs.lattice_points)


def sqrt2_extension(rng):
    """A valid extension over a sqrt(2) block and a rank-1 block.

    Blocks of sizes (3, 2) with T = {0, 1, 3}; the T-values have random
    rational coordinates with denominators up to 4, so the denominator L
    of the big group is often above 1, and the first group block has the
    weights {1, sqrt(2)}."""
    blocks = BlockStructure(r=2, t=(3, 2), s=(2, 1))
    structure = GroupStructure((Block(quad=2), Block()))
    tlist = blocks.t_indices()

    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    while True:
        rows = [[0] * blocks.n for _ in range(blocks.n)]
        for i in range(blocks.n):
            bi = blocks.block_of(i)
            rows[i][i] = rng.randint(1, 3) if blocks.is_t_index(i) else 1
            for j in tlist:
                if blocks.block_of(j) > bi:
                    rows[i][j] = rng.randint(0, 3)
        A = ExactMatrix.from_rows(rows)
        t_values = (
            structure.element(((Fraction(rng.randint(1, 3), 2), q()),
                               (q(),))),
            structure.element(((q(), Fraction(rng.randint(1, 3), 3)),
                               (q(),))),
            structure.element(((0, 0), (Fraction(rng.randint(1, 5), 4),))))
        me = MonomialExtension(
            blocks=blocks, A=A, unit_markers=("1",) * blocks.n,
            y_values=compatible_values(blocks, A, t_values))
        if not validate(me):
            return me


def seeded_extensions():
    """The corpus, 20 rank-1 draws and 20 sqrt(2) draws."""
    rng = random.Random(131)
    return (corpus_extensions()
            + [random_extension(rng) for _ in range(20)]
            + [sqrt2_extension(rng) for _ in range(20)])


def test_carried_labels_match_sigma_m_labels():
    # against the old path, and, without label_row, each label lies in
    # big and in the coset of nu(y^sigma) modulo small
    seen_L, seen_quad, largest = set(), False, 0
    for me in seeded_extensions():
        cs = coset_system(strong_monomialize(me).final)
        assert cs.label_rows == sigma_m_label_rows(cs)
        assert len(set(cs.label_rows)) == cs.e
        structure, L = me.structure, cs.denominator
        small = small_group_of(cs)
        for sigma, row in zip(cs.lattice_points, cs.label_rows):
            label = structure.from_row(row, L)
            assert cs.big_group.contains(label)
            assert small.contains(label - value_of(me, sigma))
        seen_L.add(cs.denominator)
        seen_quad |= any(b.quad for b in me.structure.blocks) and cs.e > 1
        largest = max(largest, cs.e)
    assert max(seen_L) > 1 and 1 in seen_L
    assert seen_quad and largest >= 18


def echelon_label(rows):
    """Reduction through the Hermite basis of rows: the entry at each
    pivot column is brought into [0, pivot), one canonical vector per
    class of Z^k modulo the row lattice, whatever its rank."""
    hnf = hermite_row_basis(rows) if any(map(any, rows)) else ()
    pivots = [next(j for j, x in enumerate(r) if x) for r in hnf]

    def label(v):
        v = list(v)
        for r, p in zip(hnf, pivots):
            q = v[p] // r[p]
            v = [a - q * b for a, b in zip(v, r)]
        return tuple(v)
    return label


def test_labelled_parallelepiped_matches_points_and_sigma_m():
    # any label constant on the classes modulo V M will do; k = 0 and
    # V M of lower rank than k included.  Some bases get unit coordinates,
    # which the walk splits off, and A = I splits every coordinate: its
    # one point is 0, labelled label(0 M) of width k, k = 0 included
    rng = random.Random(137)
    draws = []
    for _ in range(150):
        n = rng.randint(1, 4)
        while True:
            V = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if determinant(ExactMatrix(V)):
                break
        if rng.random() < 0.3:
            V = [list(v) for v in with_unit_coordinates(rng, V)]
        draws.append((V, rng.randint(0, 3)))
    for n in (1, 3):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        draws += [(identity, 0), (identity, 2)]
    seen_k, seen_split, seen_identity = set(), set(), set()
    for V, k in draws:
        n = len(V)
        M = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        VM = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)]
              for row in V] if k else [[] for _ in V]
        label = echelon_label(VM)
        basis, labels = labelled_parallelepiped(V, M, label)
        plain = parallelepiped_points(V)
        assert basis == plain
        assert basis.cone == plain.cone == full_cone(V)
        split = len(affine_monoids._unit_coordinates(
            tuple(map(tuple, V))))
        seen_split.add(min(split, 1))
        if split == n:
            assert basis.points == ((0,) * n,)
            assert labels == (label((0,) * k),)
            seen_identity.add(k)
        assert labels == tuple(
            label([sum(a * b for a, b in zip(sigma, col))
                   for col in zip(*M)] if k else ())
            for sigma in plain.points)
        seen_k.add(k)
    assert seen_k == {0, 1, 2, 3}
    assert seen_split == {0, 1} and seen_identity >= {0, 2}


def test_parallelepiped_over_budget_is_refused_before_the_walk(monkeypatch):
    budget = affine_monoids._POINT_BUDGET
    # the e = 99 856 rung of tools/points_scaling.py runs
    assert budget >= 316 * 316
    walked = []

    def no_walk(*args):
        # a walk that yields nothing, so a missing budget fails at once
        walked.append(args)
        return iter(())

    with monkeypatch.context() as m:
        m.setattr(affine_monoids, "_box_walk", no_walk)
        for vectors in (((1, 0), (0, budget + 1)),
                        ((1, 0), (0, 999_999_999_999))):
            with pytest.raises(EnumerationOverflow):
                parallelepiped_points(vectors)
            with pytest.raises(EnumerationOverflow):
                labelled_parallelepiped(vectors, [(1,), (0,)], tuple)
    assert walked == []
    assert parallelepiped_points(((1, 0), (0, 3))).index == 3


def test_residue_degree_over_budget_is_refused_before_any_label(
        monkeypatch):
    cs = coset_system(strong_monomialize(corpus_extensions()[0]).final)
    budget = graded_algebra._LABEL_BUDGET
    built = []
    monkeypatch.setattr(graded_algebra, "GradedBasisLabel",
                        lambda **kw: built.append(kw))
    for f in (budget // cs.e + 1, 999_999_999_999):
        with pytest.raises(EnumerationOverflow):
            GradedModule(system=cs, residue_degree=f)
    assert built == []
    # at the budget the module is made; its labels are not built here
    assert GradedModule(system=cs, residue_degree=budget // cs.e)


def test_pipeline_memory_per_point_at_e_10000():
    # traced bytes per lattice point of one pipeline run at e = 10^4;
    # walking, labelling and encoding each point once keeps the peak
    # near 570 B (about 1035 B when sigma M was formed per point and
    # each integer was encoded to its own str)
    g = (100, 100)
    scenario = Scenario(name="mem", extensions=(
        ("mem", pipeline_extension(g)),), residue_degree=1,
        semigroup=None, records=(), expect={})
    tracemalloc.start()
    try:
        report = run_pipeline(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["ok"] and report["cases"][0]["e"] == "10000"
    assert peak / 10_000 < 800
