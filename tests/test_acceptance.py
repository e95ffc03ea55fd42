"""Acceptance gate: one test per release criterion.

Every check is exact (integer/rational equality, no tolerances); each test
also enforces its wall-clock budget.  Random suites use fixed seeds so the
gate is reproducible.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from test_exact_lattice import determinant_cofactor

from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names
from gradedval.exact_lattice import (
    ExactMatrix,
    determinant,
    is_unimodular,
    lattice_index,
    quotient_invariants,
    smith_normal_form,
    solve_rational,
)
from gradedval.affine_monoids import (
    AffineMonoid,
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from gradedval.graded_algebra import (
    GradedModule,
    fixed_by_all_characters,
    is_sigma_trivial,
)
from gradedval.monomial_extension import SSMForm, adjoint_relations
from gradedval.monomialization import (
    coset_system,
    replay,
    strong_monomialize,
)
from gradedval.ordered_groups import (
    Block,
    GroupStructure,
    ValueGroup,
    subgroup_index,
)
from gradedval.ramification import (
    ExtensionRecord,
    compose_tower,
    ostrowski_defect,
    trivial_record,
)
from gradedval.errors import Inconsistent
from gradedval.scenarios import (
    load_scenario,
    random_extension_bounded,
    random_theorem48_extension,
    run_pipeline,
)
from gradedval.serialize import canonical_dumps
from gradedval.value_semigroups import (
    ValueSemigroup,
    semigroup_difference,
    semigroup_membership,
)

SCENARIOS = tuple(bundled_scenario_names())


def test_criterion_1_smith_normal_form_suite():
    """500 random matrices, n <= 6, |entries| <= 20; exact; < 10 s."""
    start = time.monotonic()
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(1, 6)
        A = ExactMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        snf = smith_normal_form(A)
        assert snf.U.matmul(A).matmul(snf.V).entries == snf.D.entries
        assert is_unimodular(snf.U) and is_unimodular(snf.V)
        diag = snf.D.diagonal_entries()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(determinant_cofactor(A))
    assert time.monotonic() - start < 10


def test_criterion_2_parallelepiped_suite():
    """200 random independent generator sets, n <= 4, |entries| <= 5.

    Checks |Lambda| = lattice index = |det| and the disjoint coset cover of
    the box-bounded saturation by brute force; exact; < 30 s.
    """
    start = time.monotonic()
    rng = random.Random(2)
    done = 0
    while done < 200:
        n = rng.randint(1, 4)
        span = 5 if n <= 2 else (3 if n == 3 else 2)
        vecs = tuple(tuple(rng.randint(-span, span) for _ in range(n))
                     for _ in range(n))
        M = ExactMatrix.from_rows(vecs)
        d = determinant(M)
        if d == 0:
            continue
        volume = 1
        for c in range(n):
            lo = sum(min(0, v[c]) for v in vecs)
            hi = sum(max(0, v[c]) for v in vecs)
            volume *= hi - lo + 1
        if volume > 20000 or abs(d) > 60:
            continue
        pb = parallelepiped_points(vecs)
        assert len(pb.points) == pb.index == abs(d)
        assert pb.index == lattice_index(M.transpose())
        # strictly positive certificate: phi with phi . v_i = 1 for all i
        phi = solve_rational(M, (1,) * n)
        monoid = AffineMonoid(dim=n, generators=vecs,
                              positivity_functional=phi)
        box = 3 if (n <= 3 and pb.index <= 30) else 2
        report = verify_disjoint_decomposition(pb, monoid, box_bound=box)
        assert report.ok
        done += 1
    assert time.monotonic() - start < 30


def test_criterion_2_decomposition_e35_box6():
    """A 4-dim simplicial basis with e = 35 on the box [0, 6)^4 in < 1 s.

    The per-point membership search took several seconds here; the
    checked-point count is compared with an independent rational cone
    count outside the timed region.
    """
    vecs = ((5, 0, 0, 0), (1, 7, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1))
    start = time.monotonic()
    pb = parallelepiped_points(vecs)
    monoid = AffineMonoid(dim=4, generators=vecs,
                          positivity_functional=(1,) * 4)
    report = verify_disjoint_decomposition(pb, monoid, box_bound=6)
    elapsed = time.monotonic() - start
    assert pb.index == 35
    assert report.ok
    W = ExactMatrix.from_rows(vecs).transpose()
    in_cone = sum(
        1 for w in product(range(6), repeat=4)
        if all(c >= 0 for c in solve_rational(W, w)))
    assert report.checked_points == in_cone == 301
    assert elapsed < 1


def test_criterion_3_coset_system_suite():
    """100 random strong-monomial extensions with e <= 24; exact; < 30 s."""
    start = time.monotonic()
    rng = random.Random(3)
    for _ in range(100):
        me = random_extension_bounded(rng, e_max=24)
        cs = coset_system(strong_monomialize(me).final)
        assert 1 <= cs.e <= 24
        assert len(cs.lattice_points) == cs.e
        # labels pairwise distinct
        flats = [l.flat() for l in cs.labels]
        assert len(set(flats)) == cs.e
        # lattice points exhaust Z^n / A^t Z^n: Smith residues all distinct
        diag = cs.snf_at.D.diagonal_entries()
        residues = {
            tuple(x % d for x, d in zip(cs.snf_at.U.apply(p), diag))
            for p in cs.lattice_points}
        assert len(residues) == cs.e
        inv = quotient_invariants(cs.extension.A.transpose())
        prod = 1
        for d in inv:
            prod *= d
        assert prod == cs.e
        assert inv == cs.invariant_factors
    assert time.monotonic() - start < 30


def _hand_example(tail_exponent):
    from gradedval.monomial_extension import BlockStructure, MonomialExtension
    blocks = BlockStructure(r=2, t=(2, 1), s=(1, 1))
    structure = GroupStructure((Block(), Block()))
    values = (
        structure.element(((1,), (0,))),
        structure.element(((1,), (0,))),
        structure.element(((0,), (1,))),
    )
    A = ExactMatrix.from_rows(
        [[1, 0, 0], [0, 1, 1], [0, 0, tail_exponent]])
    return MonomialExtension(blocks=blocks, A=A,
                             unit_markers=("1",) * 3, y_values=values)


def test_criterion_4_monomialization():
    """Two hand examples plus 100 random shaped inputs; exact; < 60 s."""
    start = time.monotonic()
    for tail in (1, 2):
        me = _hand_example(tail)
        e0 = adjoint_relations(me).e
        trace = strong_monomialize(me)
        assert isinstance(trace.final, SSMForm)
        assert replay(trace.initial, trace.steps) == trace.final.extension
        current = trace.initial
        assert all(v.sign() > 0 for v in current.y_values)
        from gradedval.monomialization import apply_step
        for step in trace.steps:
            current = apply_step(current, step)
            assert all(v.sign() > 0 for v in current.y_values)
        assert adjoint_relations(trace.final.extension).e == e0
    rng = random.Random(4)
    for _ in range(100):
        me = random_theorem48_extension(rng, r_max=3, t_max=2, h_max=3)
        assert me.blocks.n <= 6
        trace = strong_monomialize(me)
        assert isinstance(trace.final, SSMForm)
        assert replay(trace.initial, trace.steps) == trace.final.extension
    assert time.monotonic() - start < 60


def test_criterion_5_rank_e_times_f_per_scenario():
    """Every corpus scenario: e * f labels exhausting the cosets."""
    for name in SCENARIOS:
        scenario = load_scenario(json.loads(bundled_scenario_bytes(name)))
        report = run_pipeline(scenario)
        assert report["ok"], name
        for case in report["cases"]:
            checks = {c["name"]: c["passed"] for c in case["checks"]}
            assert checks["rank_is_e_times_f"], (name, case["case"])
            assert checks["cosets_exhausted"], (name, case["case"])


def test_criterion_6_invariant_part_is_fixed_set():
    """Brute force over the whole quotient group for e <= 12; exact."""
    rng = random.Random(6)
    systems = []
    while len(systems) < 20:
        me = random_extension_bounded(rng, e_max=12)
        systems.append(coset_system(strong_monomialize(me).final))
    for cs in systems:
        mod = GradedModule(system=cs, residue_degree=1)
        for sigma in cs.lattice_points:
            assert fixed_by_all_characters(mod, sigma) == \
                is_sigma_trivial(cs, sigma)
        # the trivial coset contains exactly the origin
        trivial = [p for p in cs.lattice_points
                   if is_sigma_trivial(cs, p)]
        assert trivial == [(0,) * cs.extension.blocks.n]


RANK1 = GroupStructure((Block(),))


def test_criterion_7_section5_counterexample():
    """3/2 is a value of the extension but not of the base; < 1 s."""
    start = time.monotonic()

    def q(x):
        return RANK1.element(((Fraction(x),),))

    small_gens = (q(1), q(Fraction(5, 2)))
    big_gens = (q(1), q(Fraction(3, 2)), q(Fraction(5, 2)))
    small = ValueSemigroup(ambient=ValueGroup(RANK1, small_gens),
                           generators=small_gens)
    big = ValueSemigroup(ambient=ValueGroup(RANK1, big_gens),
                         generators=big_gens)
    assert semigroup_membership(q(Fraction(3, 2)), small) is False
    witnesses = semigroup_difference(small, big, 4)
    assert q(Fraction(3, 2)) in witnesses
    assert subgroup_index(big.ambient, small.ambient) == 1
    assert subgroup_index(small.ambient, big.ambient) == 1
    assert time.monotonic() - start < 1


def test_criterion_8_ledger_suite():
    """1000 random records; exact; < 5 s."""
    start = time.monotonic()
    rng = random.Random(8)
    primes = (2, 3, 5, 7, 11)
    for _ in range(1000):
        p = rng.choice((0,) + primes)
        e = rng.randint(1, 6)
        f = rng.randint(1, 6)
        delta = 0 if p == 0 else rng.randint(0, 3)
        N = e * f * (p ** delta if p else 1)
        assert ostrowski_defect(N, e, f, p) == delta
        if p == 0:
            rec = ExtensionRecord(N=N, e=e, f=f, p=p)
            assert rec.delta == 0 and rec.N == rec.e * rec.f
        g = Fraction(rng.randint(1, 5))
        r = rng.randint(1, 5)
        a = ExtensionRecord(N=N, e=e, f=f, p=p, d=g * r, g=g)
        b = ExtensionRecord(N=N, e=e, f=f, p=p, d=g * r, g=g)
        c = ExtensionRecord(N=1, e=1, f=1, p=p, d=Fraction(2), g=Fraction(1))
        ident = trivial_record(p)
        assert compose_tower(ident, a) == a == compose_tower(a, ident)
        assert compose_tower(compose_tower(a, b), c) == \
            compose_tower(a, compose_tower(b, c))
        try:
            ExtensionRecord(N=N, e=e, f=f, p=p,
                            d=g * r + Fraction(1, 2), g=g)
            bad_accepted = (Fraction(g * r + Fraction(1, 2), g)
                            .denominator == 1)
            assert bad_accepted
        except Inconsistent:
            pass
    assert time.monotonic() - start < 5


def test_criterion_9_pipeline_determinism():
    """Byte-identical reports on repeated runs of every scenario."""
    for name in SCENARIOS:
        data = json.loads(bundled_scenario_bytes(name))
        first = canonical_dumps(run_pipeline(load_scenario(data)))
        second = canonical_dumps(run_pipeline(load_scenario(data)))
        assert first == second, name
