import hashlib
import random
from fractions import Fraction

import pytest

from gradedval import exact_lattice
from gradedval.exact_lattice import (
    ExactMatrix,
    abs_adjugate,
    adjugate,
    determinant,
    hermite_row_basis,
    in_column_lattice,
    is_unimodular,
    lattice_index,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
    solve_rational,
    unimodular_inverse,
)
from gradedval.errors import (
    DimensionMismatch,
    GradedValError,
    NonIntegerEntry,
    SingularLattice,
)


def determinant_cofactor(A):
    """Cofactor-expansion determinant; the independent oracle for tests."""
    if not A.is_square():
        raise DimensionMismatch("determinant of non-square matrix")
    rows = A.entries

    def det(rs, cols):
        if len(cols) == 1:
            return rs[0][cols[0]]
        total = 0
        for pos, c in enumerate(cols):
            if rs[0][c] == 0:
                continue
            rest = cols[:pos] + cols[pos + 1:]
            total += (-1) ** pos * rs[0][c] * det(rs[1:], rest)
        return total

    return det(rows, tuple(range(A.rows))) if A.rows else 1


def snf_oracle_diag(A):
    """Independent gcd-based row/column reduction, diagonal only."""
    M = [list(r) for r in A.entries]
    m, n = len(M), len(M[0])
    diag = []
    t = 0
    while t < min(m, n):
        nonzero = [(abs(M[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if M[i][j]]
        if not nonzero:
            break
        while True:
            _, i, j = min(nonzero)
            M[t], M[i] = M[i], M[t]
            for row in M:
                row[t], row[j] = row[j], row[t]
            done = True
            for i in range(t + 1, m):
                if M[i][t] % M[t][t]:
                    q = M[i][t] // M[t][t]
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    done = False
            for j in range(t + 1, n):
                if M[t][j] % M[t][t]:
                    q = M[t][j] // M[t][t]
                    for row in M:
                        row[j] -= q * row[t]
                    done = False
            if done:
                for i in range(t + 1, m):
                    if M[i][t]:
                        q = M[i][t] // M[t][t]
                        M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                for j in range(t + 1, n):
                    if M[t][j]:
                        q = M[t][j] // M[t][t]
                        for row in M:
                            row[j] -= q * row[t]
                bad = [(abs(M[i][j]), i, j) for i in range(t + 1, m)
                       for j in range(t + 1, n) if M[i][j] % M[t][t]]
                if bad:
                    _, i, _ = min(bad)
                    M[t] = [a + b for a, b in zip(M[t], M[i])]
                    nonzero = [(abs(M[i][j]), i, j) for i in range(t, m)
                               for j in range(t, n) if M[i][j]]
                    continue
                break
            nonzero = [(abs(M[i][j]), i, j) for i in range(t, m)
                       for j in range(t, n) if M[i][j]]
        diag.append(abs(M[t][t]))
        t += 1
    return diag


def check_snf(A):
    snf = smith_normal_form(A)
    assert snf.U.matmul(A).matmul(snf.V).entries == snf.D.entries
    assert is_unimodular(snf.U)
    assert is_unimodular(snf.V)
    diag = snf.D.diagonal_entries()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # off-diagonal must vanish
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0
    return snf


def test_snf_identity():
    A = ExactMatrix.identity(2)
    assert check_snf(A).D.entries == A.entries


def test_snf_diag_2_3():
    snf = check_snf(ExactMatrix.diagonal((2, 3)))
    assert snf.D.diagonal_entries() == (1, 6)
    assert snf_oracle_diag(ExactMatrix.diagonal((2, 3))) == [1, 6]


def test_snf_spec_example():
    A = ExactMatrix.from_rows([[2, 4], [6, 8]])
    snf = check_snf(A)
    assert snf.D.diagonal_entries() == (2, 4)
    assert snf_oracle_diag(A) == [2, 4]
    assert determinant(A) == -8
    assert determinant_cofactor(A) == -8


def test_snf_random_matches_oracle():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = ExactMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        snf = check_snf(A)
        diag = [d for d in snf.D.diagonal_entries() if d]
        assert diag == snf_oracle_diag(A)


def random_matrix(rng, m, n, span):
    return ExactMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)])


def smith_sweep():
    """Seeded matrices past the 5 x 5 Hypothesis range: square 6-10 with
    entries in [-50, 50], 3 x 7 and 7 x 3, rank-deficient products, zero
    matrices and the empty shapes."""
    rng = random.Random(8)
    out = [random_matrix(rng, n, n, 50) for n in range(6, 11)
           for _ in range(3)]
    out += [random_matrix(rng, m, n, 50) for m, n in ((3, 7), (7, 3))
            for _ in range(4)]
    for m, k, n in ((6, 2, 6), (7, 3, 5), (4, 1, 8), (9, 4, 9), (5, 3, 3)):
        out.append(random_matrix(rng, m, k, 9).matmul(
            random_matrix(rng, k, n, 9)))
    out += [ExactMatrix.from_rows([[0] * n for _ in range(m)])
            for m, n in ((1, 1), (3, 3), (2, 5), (5, 2))]
    out += [ExactMatrix(()), ExactMatrix(((),))]
    return out


def test_snf_sweep_beyond_hypothesis_range():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    for A in smith_sweep():
        diag = check_snf(A).D.diagonal_entries()
        if not A.rows:
            assert diag == ()   # the oracles need a first row
            continue
        assert [d for d in diag if d] == snf_oracle_diag(A), A
        if A.cols:
            theirs = invariant_factors(sympy.Matrix(A.entries),
                                       domain=sympy.ZZ)
            assert diag == tuple(abs(int(d)) for d in theirs), A


def test_snf_column_fix_terminates():
    # adding the offending row, not the column, loops here forever: the
    # canonical row pass reduces the added row straight back
    A = ExactMatrix.from_rows([[6, 3, -3, -6], [6, -9, 3, 4],
                               [-9, 5, -1, -2], [9, -6, 1, -9]])
    assert check_snf(A).D.diagonal_entries() == (1, 1, 1, 528)
    assert snf_oracle_diag(A) == [1, 1, 1, 528]


def test_hermite_pivot_cols_carries_the_transform():
    rng = random.Random(12)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = random_matrix(rng, m, n, 9)
        if rng.random() < 0.3:   # rank-deficient
            A = random_matrix(rng, m, 1, 5).matmul(random_matrix(rng, 1, n, 5))
        rows = hermite_row_basis(
            [row + tuple(1 if j == i else 0 for j in range(m))
             for i, row in enumerate(A.entries)], n)
        left = ExactMatrix.from_rows([r[:n] for r in rows])
        T = ExactMatrix.from_rows([r[n:] for r in rows])
        assert is_unimodular(T)
        assert T.matmul(A) == left
        assert tuple(r for r in left.entries if any(r)) == \
            hermite_row_basis(A.entries)


def test_lattice_index_trivial_and_diag():
    assert lattice_index(ExactMatrix.identity(3)) == 1
    assert lattice_index(ExactMatrix.diagonal((2, 3))) == 6


def test_lattice_index_brute_force_residues():
    from fractions import Fraction
    from itertools import product

    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        while True:
            A = ExactMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            d = determinant(A)
            if d and abs(d) <= 60 and abs(d) ** n <= 20000:
                break
        idx = lattice_index(A)
        B = abs(d)
        # enumerate all column-lattice vectors inside (-B, B)^n: coefficient
        # vectors are bounded by the exact inverse's row sums
        from gradedval.exact_lattice import solve_rational
        bounds = []
        for i in range(n):
            row = solve_rational(
                A.transpose(), tuple(1 if k == i else 0 for k in range(n)))
            bounds.append(int(sum(abs(Fraction(x)) for x in row) * B) + 1)
        lattice = set()
        for c in product(*[range(-b, b + 1) for b in bounds]):
            v = A.apply(c)
            if all(-B < x < B for x in v):
                lattice.add(v)
        seen = []
        for v in product(range(B), repeat=n):
            if not any(tuple(a - b for a, b in zip(v, w)) in lattice
                       for w in seen):
                seen.append(v)
        assert len(seen) == idx


def transform_free_diagonal(A):
    """The Smith diagonal of square A from the passes on A alone, as
    quotient_invariants takes it: m empty U rows and no V rows."""
    M, U, V = exact_lattice._smith_loop(
        [list(row) for row in A.entries], A.cols, [[]] * A.rows, [])
    assert U == [[]] * A.rows and V == []
    return tuple(M[i][i] for i in range(A.rows))


def seeded_square(rng, k, span, triangular):
    """A k x k matrix with entries in [-span, span], upper triangular with
    a nonzero diagonal when triangular, dense otherwise."""
    rows = [[rng.randint(-span, span) if j >= i or not triangular else 0
             for j in range(k)] for i in range(k)]
    if triangular:
        for i in range(k):
            rows[i][i] = rng.choice([-1, 1]) * rng.randint(1, span)
    return ExactMatrix.from_rows(rows)


def test_transform_free_diagonal_is_the_smith_diagonal():
    # on nonsingular square matrices the passes on A alone pivot as the
    # passes on [M | U] and [M^t | V^t] do, so D is the same entry for
    # entry; half of the draws are triangular, as the T-blocks are
    rng = random.Random(61)
    done = {True: 0, False: 0}
    while min(done.values()) < 120:
        triangular = done[True] <= done[False]
        A = seeded_square(rng, rng.randint(1, 6), 12, triangular)
        if not determinant(A):
            continue
        done[triangular] += 1
        diag = smith_normal_form(A).D.diagonal_entries()
        assert transform_free_diagonal(A) == diag, A
        assert quotient_invariants(A) == tuple(d for d in diag if d > 1)


def singular_squares(rng):
    """Seeded singular k x k matrices, k <= 6: rank-deficient products,
    a repeated row, a zero row or column, and the zero matrix."""
    for k in range(1, 7):
        out = [ExactMatrix.from_rows([[0] * k for _ in range(k)])]
        if k > 1:
            out.append(random_matrix(rng, k, k - 1, 6).matmul(
                random_matrix(rng, k - 1, k, 6)))
            rows = [list(r) for r in random_matrix(rng, k, k, 12).entries]
            rows[-1] = list(rows[0])
            out.append(ExactMatrix.from_rows(rows))
        rows = [list(r) for r in random_matrix(rng, k, k, 12).entries]
        rows[rng.randrange(k)] = [0] * k
        out.append(ExactMatrix.from_rows(rows))
        out.append(random_matrix(rng, k, k, 12).matmul(
            ExactMatrix.from_rows([[0 if j == k - 1 else int(i == j)
                                    for j in range(k)] for i in range(k)])))
        yield from out


def test_transform_free_diagonal_refuses_a_singular_matrix():
    # a row lost in a pass on A alone is det A = 0, with the message the
    # zero of the Smith diagonal used to give
    count = 0
    for A in singular_squares(random.Random(62)):
        assert determinant(A) == 0
        assert 0 in smith_normal_form(A).D.diagonal_entries()
        with pytest.raises(SingularLattice,
                           match="^column lattice has infinite index$"):
            quotient_invariants(A)
        count += 1
    assert count == 28


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_adjugate_refuses_a_tampered_bareiss_block(monkeypatch, k):
    # the identity adj * A = det * I is checked entry by entry: a wrong
    # entry anywhere in the adjugate block, or a wrong det, is refused, and
    # so is row l of adj added to row i, which leaves every diagonal entry
    # of adj * A right and puts det at (i, l)
    rng = random.Random(63 + k)
    A = seeded_square(rng, k, 12, False)
    while not determinant(A):
        A = seeded_square(rng, k, 12, False)
    real = exact_lattice._bareiss
    det, M = real([row + tuple(int(i == j) for j in range(k))
                   for i, row in enumerate(A.entries)], k)
    tampered = []
    for i in range(k):
        for j in range(k, 2 * k):
            N = [list(row) for row in M]
            N[i][j] += 1
            tampered.append((det, N))
    for i in range(k):
        for l in range(k):
            if l != i:
                N = [list(row) for row in M]
                N[i][k:] = [a + b for a, b in zip(N[i][k:], N[l][k:])]
                tampered.append((det, N))
    tampered.append((det + 1, M))
    for result in tampered:
        monkeypatch.setattr(exact_lattice, "_bareiss",
                            lambda rows, k, result=result: result)
        with pytest.raises(SingularLattice,
                           match="^adjugate identity failed$"):
            adjugate(A)
    monkeypatch.setattr(exact_lattice, "_bareiss", real)
    assert adjugate(A) == (det, ExactMatrix._of(
        tuple(tuple(row[k:]) for row in M)))


def test_lattice_index_singular():
    with pytest.raises(SingularLattice):
        lattice_index(ExactMatrix.from_rows([[1, 1], [1, 1]]))


def test_quotient_invariants():
    assert quotient_invariants(ExactMatrix.identity(4)) == ()
    assert quotient_invariants(ExactMatrix.diagonal((2, 3))) == (6,)
    assert quotient_invariants(ExactMatrix.diagonal((2, 2))) == (2, 2)


def test_quotient_invariants_singular_from_the_smith_diagonal():
    # the zero on the Smith diagonal decides it, with lattice_index's
    # message; the product of the factors is |det A| otherwise
    for rows in ([[1, 1], [1, 1]], [[0, 0], [0, 0]], [[2, 4, 6], [1, 2, 3],
                                                      [0, 1, 5]]):
        with pytest.raises(SingularLattice,
                           match="^column lattice has infinite index$"):
            quotient_invariants(ExactMatrix.from_rows(rows))
    rng = random.Random(17)
    for _ in range(40):
        A = ExactMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        det = determinant(A)
        if det:
            product = 1
            for d in quotient_invariants(A):
                product *= d
            assert product == abs(det)


def test_solve_integer_examples():
    A = ExactMatrix.identity(2)
    assert solve_integer(A, (3, 5)) == (3, 5)
    D = ExactMatrix.diagonal((2, 3))
    assert solve_integer(D, (4, 9)) == (2, 3)
    assert solve_integer(D, (1, 0)) is None


def test_solve_integer_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = ExactMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = A.apply(x)
        sol = solve_integer(A, b)
        assert sol is not None
        assert A.apply(sol) == b


def test_unimodular_inverse():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = ExactMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        snf = smith_normal_form(A)
        for M in (snf.U, snf.V):
            inv = unimodular_inverse(M)
            assert M.matmul(inv).entries == ExactMatrix.identity(n).entries


def cofactor_adjugate(A):
    """adj A from the cofactor minors, each by cofactor expansion."""
    n = A.rows
    if n == 1:
        return ((1,),)
    return tuple(tuple(
        (-1) ** (i + j) * determinant_cofactor(ExactMatrix.from_rows(
            [[A[a, b] for b in range(n) if b != i]
             for a in range(n) if a != j]))
        for j in range(n)) for i in range(n))


def random_nonsingular(rng, count, span=6, n_max=5):
    done = 0
    while done < count:
        n = rng.randint(1, n_max)
        A = ExactMatrix.from_rows(
            [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        if determinant(A):
            done += 1
            yield A


def test_adjugate_matches_cofactor_minors():
    negative = 0
    for A in random_nonsingular(random.Random(31), 80):
        d, adj = adjugate(A)
        assert d == determinant_cofactor(A)
        assert adj.entries == cofactor_adjugate(A)
        negative += d < 0
    assert negative > 10


def test_adjugate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for A in random_nonsingular(random.Random(32), 60, span=9, n_max=6):
        d, adj = adjugate(A)
        M = sympy.Matrix(A.entries)
        assert d == int(M.det())
        assert [list(r) for r in adj.entries] == M.adjugate().tolist()


def test_adjugate_edge_cases():
    assert adjugate(ExactMatrix.from_rows([[-7]])) == (
        -7, ExactMatrix.from_rows([[1]]))
    # zero leading entry forces a row swap, which flips the sign
    d, adj = adjugate(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert d == -1 and adj.entries == ((0, -1), (-1, 0))
    with pytest.raises(SingularLattice):
        adjugate(ExactMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatch):
        adjugate(ExactMatrix.from_rows([[1, 2]]))


def test_abs_adjugate_is_the_adjugate_signed_by_the_determinant():
    # the one sign-normalised adjugate, against adjugate on matrices of
    # both determinant signs; the negated one is built unchecked, so it
    # must be what the checked constructor would build
    signs = set()
    for A in random_nonsingular(random.Random(33), 80):
        d, adj = adjugate(A)
        e, C = abs_adjugate(A)
        sign = 1 if d > 0 else -1
        signs.add(sign)
        assert e == abs(d)
        assert C.entries == tuple(tuple(sign * x for x in row)
                                  for row in adj.entries)
        assert C.matmul(A) == ExactMatrix.diagonal((e,) * A.rows)
        assert all(type(x) is int for row in C.entries for x in row)
        assert C == ExactMatrix(C.entries)
    assert signs == {1, -1}
    with pytest.raises(SingularLattice):
        abs_adjugate(ExactMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatch):
        abs_adjugate(ExactMatrix.from_rows([[1, 2]]))


def test_transpose_of_an_empty_column_matrix_is_refused():
    # a 1 x 0 matrix has a 0 x 1 transpose, which the row tuple cannot
    # hold; it used to come back as 0 x 0
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_rows([[]]).transpose()
    assert ExactMatrix(()).transpose() == ExactMatrix(())
    assert ExactMatrix.from_rows([[1, 2]]).transpose().entries == \
        ((1,), (2,))
    # a product whose right factor has no columns keeps its shape
    product_ = ExactMatrix.from_rows([[5], [6]]).matmul(
        ExactMatrix.from_rows([[]]))
    assert (product_.rows, product_.cols) == (2, 0)


@pytest.mark.parametrize("entry", [
    2.5, 2.0, Fraction(5, 2), Fraction(4, 1), True, False, "7", None])
def test_checked_constructor_refuses_non_integers(entry):
    # these used to be truncated: 2.5 and Fraction(5, 2) became 2, True 1
    # and "7" 7; the refusal is typed, so it survives python -O
    for build in (lambda: ExactMatrix(((1, entry), (3, 4))),
                  lambda: ExactMatrix.from_rows([[entry]]),
                  lambda: ExactMatrix.diagonal((1, entry))):
        with pytest.raises(NonIntegerEntry) as info:
            build()
        assert isinstance(info.value, GradedValError)
        assert type(entry).__name__ in str(info.value)


def test_checked_constructor_refuses_a_ragged_grid():
    with pytest.raises(DimensionMismatch):
        ExactMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_rows([[1], [2, 3]])
    # lists are taken as rows and stored as tuples
    assert ExactMatrix([[1, -2], [3, 4]]).entries == ((1, -2), (3, 4))


def derived_matrices(rng):
    """(site, matrix) from every exact_lattice site that builds its result
    with the unchecked constructor, on one seeded square matrix."""
    n = rng.randint(1, 4)
    A = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                               for _ in range(n)])
    B = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(2)]
                               for _ in range(n)])
    snf = smith_normal_form(B)
    out = [("transpose", A.transpose()), ("transpose", B.transpose()),
           ("matmul", A.matmul(B)), ("identity", ExactMatrix.identity(n)),
           ("diagonal", ExactMatrix.diagonal(A.diagonal_entries())),
           ("smith U", snf.U), ("smith D", snf.D), ("smith V", snf.V),
           ("unimodular_inverse", unimodular_inverse(snf.U))]
    if determinant(A):
        out.append(("adjugate", adjugate(A)[1]))
    return out


def test_unchecked_sites_build_what_the_checked_constructor_would():
    rng = random.Random(20261018)
    sites = set()
    for _ in range(200):
        for site, m in derived_matrices(rng):
            sites.add(site)
            assert type(m.entries) is tuple
            assert all(type(row) is tuple for row in m.entries)
            assert all(type(x) is int for row in m.entries for x in row)
            assert m == ExactMatrix(m.entries)
    assert len(sites) == 9


def test_hermite_basis_is_canonical():
    # reducing above the pivots bottom-up gave (1, 0, -234) as first row
    basis = hermite_row_basis([(1, 7, 4), (7, -3, 0), (0, 9, 6)])
    assert basis == ((1, 0, 6), (0, 1, 34), (0, 0, 60))
    assert hermite_row_basis(basis) == basis


def sympy_row_hermite(sympy, rows):
    """sympy's column-style Hermite form, read with rows and columns
    reversed: the row-style echelon form of hermite_row_basis."""
    from sympy.matrices.normalforms import hermite_normal_form
    H = hermite_normal_form(sympy.Matrix(rows).T[::-1, ::-1]).T[::-1, ::-1]
    return tuple(tuple(int(x) for x in H.row(i)) for i in range(H.rows))


def test_hermite_basis_matches_sympy_seeded():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-9, 9) for _ in range(n))
                for _ in range(rng.randint(n, n + 2))]
        if sympy.Matrix(rows).rank() < n:
            continue
        basis = hermite_row_basis(rows)
        assert basis == sympy_row_hermite(sympy, rows), rows
        assert hermite_row_basis(basis) == basis
        checked += 1


def test_residue_membership_examples():
    D = ExactMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(D)
    assert in_column_lattice(snf, (4, 9))
    assert not in_column_lattice(snf, (1, 0))
    # rank-deficient: only multiples of (1, 2) are reachable
    R = ExactMatrix.from_rows([[1, 2], [2, 4]])
    snf = smith_normal_form(R)
    assert in_column_lattice(snf, (3, 6))
    assert not in_column_lattice(snf, (1, 1))


def rref(rows, pivot_cols=None):
    """Reduced row echelon form over Q by Gauss-Jordan elimination; the
    rational elimination solve_rational used to run, kept as its oracle.

    Pivots are sought only in the first pivot_cols columns (all columns by
    default), so an augmented right-hand side is carried along but never
    pivoted on (Cohen, A Course in Computational Algebraic Number Theory,
    GTM 138, sections 2.2-2.3).  Returns (R, pivots): the reduced rows as
    Fractions, zero rows last, and the tuple of pivot columns.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    if pivot_cols is None:
        pivot_cols = len(M[0]) if M else 0
    pivots = []
    for col in range(pivot_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[col]:
                f = row[col]
                M[i] = [x - f * y for x, y in zip(row, M[r])]
        pivots.append(col)
    return M, tuple(pivots)


def check_rref_against_sympy(rows):
    """rref equals sympy's Matrix.rref(); with the last column augmented,
    the left block and its pivots are those of the left block alone, a
    nonzero right-hand side past the pivots marks an inconsistent system,
    and otherwise the pivot entries solve it."""
    sympy = pytest.importorskip("sympy")

    def exact(M):
        return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)]
                for i in range(M.rows)]

    R, pivots = rref(rows)
    theirs, their_pivots = sympy.Matrix(rows).rref()
    assert pivots == their_pivots
    assert R == exact(theirs)
    k = len(rows[0]) - 1
    if k == 0:
        return
    R, pivots = rref(rows, k)
    left, left_pivots = sympy.Matrix([r[:k] for r in rows]).rref()
    assert pivots == left_pivots
    assert [r[:k] for r in R] == exact(left)
    inconsistent = any(r[k] for r in R[len(pivots):])
    assert inconsistent == (k in their_pivots)
    if not inconsistent:
        x = [Fraction(0)] * k
        for r, col in zip(R, pivots):
            x[col] = r[k]
        assert all(sum(a * xi for a, xi in zip(row, x)) == row[k]
                   for row in rows)


def random_rows(rng):
    """Small integer matrix, often rank-deficient: a row may be the sum of
    two others, a column may be zero."""
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    rows = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n)]
            for _ in range(m)]
    if m >= 3 and rng.random() < 0.4:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    if rng.random() < 0.2:
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
    return rows


def test_rref_against_sympy_seeded():
    rng = random.Random(12)
    deficient = 0
    for _ in range(250):
        rows = random_rows(rng)
        check_rref_against_sympy(rows)
        deficient += len(rref(rows)[1]) < min(len(rows), len(rows[0]))
    assert deficient > 50


def test_rref_edge_cases():
    assert rref([]) == ([], ())
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], ())
    R, pivots = rref([[0, 2, 4], [0, 1, 3]])
    assert pivots == (1, 2) and R == [[0, 1, 0], [0, 0, 1]]
    # pivot_cols stops before the augmented column
    R, pivots = rref([[1, 2, 5], [2, 4, 7]], 2)
    assert pivots == (0,) and R == [[1, 2, 5], [0, 0, -3]]
    assert rref([[Fraction(1, 2), 1]]) == ([[1, 2]], (0,))


def test_solve_rational_against_rref_seeded():
    # square systems, a third made singular by a row that sums two others
    rng = random.Random(21)
    kinds = {"nonsingular": 0, "singular": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 3 and rng.random() < 0.35:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        b = tuple(rng.randint(-6, 6) for _ in range(n))
        R, pivots = rref([row + [v] for row, v in zip(rows, b)], n)
        A = ExactMatrix.from_rows(rows)
        if len(pivots) < n:
            kinds["singular"] += 1
            with pytest.raises(SingularLattice, match="^singular system$"):
                solve_rational(A, b)
            continue
        kinds["nonsingular"] += 1
        x = solve_rational(A, b)
        assert x == tuple(row[n] for row in R)
        assert all(type(xi) is Fraction for xi in x)
        assert A.apply(x) == b
    assert kinds["singular"] > 40 and kinds["nonsingular"] > 200, kinds


# outcomes of the separate eliminations that rref replaced
SOLVE_CASES = (
    ([[2, 1], [1, 1]], (3, 2), (1, 1)),
    ([[0, 1], [1, 0]], (5, 7), (7, 5)),
    ([[2, 0, 0], [0, 3, 0], [1, 1, 1]], (1, 1, 1),
     (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    ([], (), ()),
    ([[1, 2], [2, 4]], (1, 2), SingularLattice),
    ([[1, 2], [2, 4]], (1, 3), SingularLattice),
    ([[0, 0], [0, 0]], (0, 0), SingularLattice),
    ([[1, 2, 3]], (1,), DimensionMismatch),
    ([[1], [2]], (1, 2), DimensionMismatch),
    ([[1, 1], [1, 1]], (1,), DimensionMismatch),
)


def test_solve_rational_outcomes():
    for rows, b, expected in SOLVE_CASES:
        A = ExactMatrix.from_rows(rows)
        if isinstance(expected, type):
            with pytest.raises(expected):
                solve_rational(A, b)
        else:
            assert solve_rational(A, b) == expected


# (singular count, sha256 of the outcomes) of the sweep below
SOLVE_SWEEP = (
    35, "15d3b6f31b9ac223661611f5a1a128fd74b4f9e17e67d76b68517c36c63e7e96")


def test_solve_rational_seeded_outcomes_are_pinned():
    rng = random.Random(7)
    out = []
    for _ in range(300):
        n = rng.randint(1, 4)
        A = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        try:
            out.append(repr(solve_rational(A, b)))
        except SingularLattice:
            out.append("SingularLattice")
    assert out.count("SingularLattice") == SOLVE_SWEEP[0]
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == \
        SOLVE_SWEEP[1]
