import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from mpla import (DimensionMismatch, InputError, Matrix, NotAComplex,
                  cohomology_dim, invert, kernel_basis, kernel_dim, rank, solve)
from mpla.linalg import cohomology_dims
from mpla.scalars import DualNumber

from helpers import (LinearForm, bareiss_rank, dense_invert, dense_kernel_basis,
                     dense_mul, dense_mul_vec, dense_rref, dense_solve,
                     operator_matrix, rand_fraction, rand_invertible)


def naive_rank(m: Matrix) -> int:
    """Plain fraction Gaussian elimination, the cross-check oracle."""
    entries = [list(row) for row in m.entries]
    return len(dense_rref(entries, m.rows, m.cols))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(3, 4)) == 0
    assert kernel_dim(Matrix.identity(2)) == 0
    assert kernel_dim(Matrix.zero(3, 4)) == 4


def test_rank_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert kernel_dim(m) == 1


def test_cohomology_dim_examples():
    assert cohomology_dim(Matrix.zero(1, 3), Matrix.zero(3, 1)) == 3
    assert cohomology_dim(Matrix.identity(2), Matrix.zero(2, 1)) == 0
    # kernel basis {(0,1)} and image basis {(0,1)} coincide
    assert cohomology_dim(Matrix.from_rows([[1, 0], [0, 0]]),
                          Matrix.from_rows([[0], [1]])) == 0


def test_cohomology_dim_rejects_non_complex():
    with pytest.raises(NotAComplex):
        cohomology_dim(Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        cohomology_dim(Matrix.zero(2, 3), Matrix.zero(2, 2))


def test_bareiss_matches_naive_gaussian_on_random_matrices():
    rng = random.Random(17)
    for _ in range(40):
        m = Matrix.from_rows([
            [Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)
        ])
        assert rank(m) == naive_rank(m)
    # rectangular and rank-deficient shapes too
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows([
            [Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)
        ])
        assert rank(m) == naive_rank(m)


def test_rank_transpose_scaling_permutation_invariance():
    rng = random.Random(23)
    for _ in range(15):
        m = Matrix.from_rows([
            [rand_fraction(rng, -5, 5) for _ in range(4)] for _ in range(5)
        ])
        assert rank(m) == rank(m.transpose())
        scaled = [list(r) for r in m.entries]
        scaled[2] = [Fraction(7, 3) * x for x in scaled[2]]
        assert rank(Matrix.from_rows(scaled)) == rank(m)
        permuted = [scaled[i] for i in (4, 0, 3, 1, 2)]
        assert rank(Matrix.from_rows(permuted)) == rank(m)
        assert kernel_dim(m) + rank(m) == m.cols


def test_kernel_basis_and_solve():
    m = Matrix.from_rows([[1, 2, 0], [0, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == kernel_dim(m) == 1
    for v in basis:
        assert m.mul_vec(v) == [0, 0]
    x = solve(m, [3, 5])
    assert x is not None and m.mul_vec(x) == [3, 5]
    assert solve(Matrix.from_rows([[1], [1]]), [0, 1]) is None


def test_invert_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert m.mul(invert(m)) == Matrix.identity(2)
    with pytest.raises(DimensionMismatch):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def test_exact_fractions_survive():
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(2, 7)],
                          [Fraction(5, 11), Fraction(1, 13)]])
    assert rank(m) == 2
    inv = invert(m)
    assert m.mul(inv) == Matrix.identity(2)


def test_bareiss_stress_fractions_and_structure():
    rng = random.Random(37)
    for trial in range(25):
        rows = rng.randint(2, 8)
        cols = rng.randint(2, 8)
        entries = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                    for _ in range(cols)] for _ in range(rows)]
        # plant linear dependencies to force column skips mid-elimination
        if rows >= 3:
            entries[1] = [3 * x for x in entries[0]]
            entries[2] = [x - y for x, y in zip(entries[0], entries[1])]
        m = Matrix.from_rows(entries)
        assert rank(m) == naive_rank(m)
        assert rank(m) == rank(m.transpose())


# -- the sparse kernel against the dense oracles and sympy --------------------

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2),
                           Fraction(-2, 3), Fraction(5, 7)])


@st.composite
def matrices(draw, max_side=6, square=False):
    """Small rational matrices with the patterns that stress pivoting:
    zero rows and columns, duplicate and proportional rows, and a zero in
    the top-left corner so the first pivot needs a row swap."""
    rows = draw(st.integers(0, max_side))
    cols = rows if square else draw(st.integers(0, max_side))
    entries = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        src, dst = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        entries[dst] = [draw(st.sampled_from([1, -2, Fraction(3, 2)])) * x
                        for x in entries[src]]
    if rows and draw(st.booleans()):
        entries[draw(st.integers(0, rows - 1))] = [0] * cols
    if cols and not square and draw(st.booleans()):
        dead = draw(st.integers(0, cols - 1))
        for row in entries:
            row[dead] = 0
    if rows >= 2 and cols and draw(st.booleans()):
        entries[0][0] = 0
        entries[1][0] = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    return Matrix(rows, cols, entries)


def sympy_rank(m: Matrix) -> int:
    """Rank by sympy's dense elimination over QQ."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m.entries],
                        (m.rows, m.cols), QQ).rank()


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_bareiss_and_sympy(m):
    assert rank(m) == bareiss_rank(m) == sympy_rank(m)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_matches_gauss_jordan_vector_for_vector(m):
    assert kernel_basis(m) == dense_kernel_basis(m)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_gauss_jordan(m, data):
    b = [data.draw(ENTRIES) for _ in range(m.rows)]
    if m.cols and data.draw(st.booleans()):
        # a consistent right-hand side: m times some vector
        b = m.mul_vec([data.draw(ENTRIES) for _ in range(m.cols)])
    assert solve(m, b) == dense_solve(m, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_storage_matches_dense_rows(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    dense = [[data.draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    expected = [[Fraction(x) for x in row] for row in dense]
    columns = [[expected[i][j] for i in range(rows)] for j in range(cols)]
    made = [Matrix(rows, cols, dense),
            Matrix.from_sparse(rows, cols, [{j: x for j, x in enumerate(row) if x}
                                            for row in expected])]
    if rows:
        made.append(Matrix.from_rows(dense))
    if cols:
        made.append(Matrix.from_columns([[row[j] for row in dense] for j in range(cols)]))
    for m in made:
        assert (m.rows, m.cols) == (rows, cols)
        assert m == made[0]
        assert m.entries == expected
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert all(type(x) is Fraction and x for row in m.data for x in row.values())
        assert [m.column(j) for j in range(cols)] == columns
        assert all(type(x) is Fraction for j in range(cols) for x in m.column(j))
        assert all(m.entry(i, j) == expected[i][j] and type(m.entry(i, j)) is Fraction
                   for i in range(rows) for j in range(cols))
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows) and t.entries == columns
        assert t.transpose() == m
        assert m.is_zero() == (not any(x for row in dense for x in row))
    m = made[0]
    if rows and cols:
        view = m.entries
        view[0][0] += 1               # a dense view: writing into it changes nothing
        assert m.entries == expected
        assert Matrix(rows, cols, view) != m
    assert m != Matrix.zero(rows, cols + 1) and m != Matrix.zero(rows + 1, cols)
    assert Matrix.identity(rows).entries == [[Fraction(int(i == j)) for j in range(rows)]
                                             for i in range(rows)]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_mul_vec_matches_dense_formula(m, data):
    v = [data.draw(ENTRIES) for _ in range(m.cols)]
    got, expected = m.mul_vec(v), dense_mul_vec(m, v)
    assert got == expected
    assert all(type(x) is Fraction for x in got)
    with pytest.raises(DimensionMismatch):
        m.mul_vec(v + [1])


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_mul_matches_dense_triple_loop(a, data):
    cols = data.draw(st.integers(0, 6))
    b = Matrix(a.cols, cols, [[data.draw(ENTRIES) for _ in range(cols)]
                              for _ in range(a.cols)])
    got = a.mul(b)
    expected = dense_mul(a, b)
    assert (got.rows, got.cols) == (a.rows, cols) and got.entries == expected
    assert all(type(x) is Fraction for row in got.entries for x in row)
    assert got.is_zero() == all(not x for row in expected for x in row)
    with pytest.raises(DimensionMismatch):
        a.mul(Matrix(a.cols + 1, cols))


@settings(max_examples=150, deadline=None)
@given(matrices(max_side=5, square=True))
def test_invert_matches_gauss_jordan(m):
    expected = dense_invert(m)
    if expected is None:
        with pytest.raises(DimensionMismatch):
            invert(m)
    else:
        assert invert(m).entries == expected


def test_linear_form_refuses_nonlinear_use():
    x, y = LinearForm.variable(0), LinearForm.variable(1)
    with pytest.raises(TypeError):
        x * y
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        Fraction(1, 2) - y
    # adding zero, scaling and cancelling are linear
    assert (0 + x).terms == {0: 1}
    assert (Fraction(1, 2) * x - y * 3).terms == {0: Fraction(1, 2), 1: -3}
    assert not (x - x) and not 0 * x
    with pytest.raises(TypeError):
        operator_matrix(lambda v: [v[0] * v[1]], 1, 2)
    with pytest.raises(TypeError):
        operator_matrix(lambda v: [v[0] + 1], 1, 1)
    assert operator_matrix(lambda v: [v[1] - v[0], 2 * v[0]], 2, 2) == \
        Matrix.from_rows([[-1, 1], [2, 0]])


def test_cohomology_dims_ranks_each_delta_once_and_checks_squares(monkeypatch):
    import mpla.linalg as linalg

    mats = [Matrix.zero(1, 1), Matrix.from_rows([[1]]), Matrix.zero(1, 1)]
    ranked = []
    real_rank = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda m, *args: ranked.append(m) or real_rank(m, *args))
    assert cohomology_dims(mats.__getitem__, 2) == [1, 0, 0]
    assert [id(m) for m in ranked] == [id(m) for m in mats]
    # δ_1 δ_0 != 0: δ_1 must not be ranked, since clearing δ_0's pivots
    # is exact only on a complex
    ranked.clear()
    bad = [Matrix.identity(1), Matrix.identity(1)]
    with pytest.raises(NotAComplex):
        cohomology_dims(bad.__getitem__, 1)
    assert [id(m) for m in ranked] == [id(bad[0])]
    with pytest.raises(InputError):
        cohomology_dims(mats.__getitem__, -1)


# -- clearing: rank with the previous differential's pivots left out ---------


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_rank_of_kept_columns_and_their_pivots(m, data):
    clear = set(data.draw(st.lists(st.integers(0, max(m.cols - 1, 0)), max_size=m.cols)))
    kept = Matrix.from_columns([m.column(j) for j in range(m.cols) if j not in clear])
    pivots = set()
    r = rank(m, clear, pivots)
    assert r == bareiss_rank(kept)
    assert rank(m, set()) == rank(m) == bareiss_rank(m)
    # the span of the kept columns projects isomorphically onto the pivots
    assert len(pivots) == r and all(0 <= i < m.rows for i in pivots)
    if r:
        on_pivots = Matrix.from_rows([kept.entries[i] for i in sorted(pivots)])
        assert bareiss_rank(on_pivots) == r


def _known_complex(rng, lone, pieces):
    """Differentials of a complex with H^d of dimension lone[d].

    C^d is the direct sum of lone[d] copies of Q with zero differential
    and of the pieces 0 -> Q -> Q -> 0 that start in degree d (pieces[d])
    or end there (pieces[d - 1]); each piece maps by a random nonzero
    scalar.  Every C^d is then conjugated by a random invertible matrix.
    """
    top = len(lone) - 1
    dims = [lone[d] + pieces[d] + (pieces[d - 1] if d else 0) for d in range(top + 1)]
    dims.append(0)
    change = [rand_invertible(rng, n) for n in dims]
    deltas = []
    for d in range(top + 1):
        rows = [[0] * dims[d] for _ in range(dims[d + 1])]
        for i in range(pieces[d]):
            rows[lone[d + 1] + pieces[d + 1] + i][lone[d] + i] = \
                rand_fraction(rng, 1, 4) * rng.choice((1, -1))
        m = Matrix(dims[d + 1], dims[d], rows)
        deltas.append(change[d + 1].mul(m).mul(invert(change[d])))
    return deltas


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda top: st.tuples(
    st.lists(st.integers(0, 3), min_size=top + 1, max_size=top + 1),
    st.lists(st.integers(0, 3), min_size=top + 1, max_size=top + 1))),
    st.integers(0, 2**32))
def test_cohomology_dims_of_complexes_with_known_cohomology(shape, seed):
    lone, pieces = shape
    pieces = pieces[:-1] + [0]        # nothing leaves the top degree
    deltas = _known_complex(random.Random(seed), lone, pieces)
    top = len(lone) - 1
    assert cohomology_dims(deltas.__getitem__, top) == lone
    ranks = [bareiss_rank(m) for m in deltas]
    assert ranks == pieces
    assert lone == [deltas[d].cols - ranks[d] - (ranks[d - 1] if d else 0)
                    for d in range(top + 1)]


def test_dual_number_keeps_its_components_type():
    for a, b in ((1, 2), (Fraction(1), Fraction(2)), (1, Fraction(2)), (Fraction(1, 2), -3)):
        x = DualNumber(a, b)
        assert (type(x.a), type(x.b)) == (type(a), type(b))
        coerced = DualNumber(Fraction(a), Fraction(b))
        assert x == coerced and hash(x) == hash(coerced) and repr(x) == repr(coerced)
    assert (DualNumber(1, 1) * DualNumber(2, 3)).b == 5
    y = DualNumber("1/2", True)
    assert (y.a, type(y.b)) == (Fraction(1, 2), Fraction)


def test_matrix_mul_matches_dense_mul():
    rng = random.Random(105)

    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    def rand_matrix(rows, cols):
        return Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])

    zero_products = 0
    for _ in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(n, k)
        cases = [rand_matrix(k, m)]
        kernel = kernel_basis(a)
        if kernel:
            cases.append(Matrix.from_columns(kernel))
        for b in cases:
            product = a.mul(b)
            assert product == Matrix.from_rows(dense_mul(a, b))
            stored = [x for row in product.data for x in row.values()]
            assert all(type(x) is Fraction and x for x in stored)
            zero_products += product.is_zero()
    assert zero_products >= 20


def test_square_check_reads_the_kept_columns_and_still_fires():
    """δ_d δ_{d-1} = 0 is checked on the columns of δ_{d-1} outside the set
    cleared when δ_{d-1} was ranked; a perturbed δ_d is still refused, and
    before it is ranked."""
    import mpla.linalg as linalg

    rng = random.Random(29)
    real_check, real_rank = linalg._product_is_zero, linalg.rank
    refused = 0
    for lone, pieces in (([1, 2, 1, 1], [2, 3, 2, 0]), ([0, 1, 3, 0, 2], [3, 1, 2, 3, 0])):
        deltas = _known_complex(rng, lone, pieces)
        top = len(lone) - 1
        checked, ranked = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_product_is_zero", lambda a, b: (
                checked.append(len(a)) or real_check(a, b)))
            mp.setattr(linalg, "rank", lambda m, *args: ranked.append(m) or real_rank(m, *args))
            assert cohomology_dims(deltas.__getitem__, top) == lone
            # J_{d-2} holds rank δ_{d-2} coordinates of C^{d-1}
            assert checked == [deltas[d - 1].cols - (pieces[d - 2] if d >= 2 else 0)
                               for d in range(1, top + 1)]
            for d in range(1, top + 1):
                if not (pieces[d - 1] and deltas[d].rows):
                    continue
                u = [rand_fraction(rng, 1, 3) for _ in range(deltas[d].rows)]
                w = [rand_fraction(rng, -2, 2) for _ in range(deltas[d].cols)]
                if not any(deltas[d - 1].transpose().mul_vec(w)):
                    continue
                bad = list(deltas)
                bad[d] = Matrix(deltas[d].rows, deltas[d].cols, [
                    [x + ui * wj for x, wj in zip(row, w)]
                    for row, ui in zip(deltas[d].entries, u)])
                ranked.clear()
                with pytest.raises(NotAComplex):
                    cohomology_dims(bad.__getitem__, top)
                assert [id(m) for m in ranked] == [id(m) for m in bad[:d]]
                refused += 1
    assert refused >= 4


# -- dense oracles: planted ranks at the density of a generic basis ----------


def _planted(rng, rows, cols, r, density, fractions):
    """A rows x cols matrix of rank r: L * R with L (rows x r) and R (r x cols)
    random integer factors holding an identity block at random positions,
    each other entry nonzero with probability ``density``; with
    ``fractions`` a third of the rows are divided by small denominators."""
    def factor(n, k, at):
        out = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(k)]
               for _ in range(n)]
        for t, i in enumerate(at):
            out[i] = [int(t == s) for s in range(k)]
        return out

    left = factor(rows, r, rng.sample(range(rows), r))
    right = [list(c) for c in zip(*factor(cols, r, rng.sample(range(cols), r)))]
    entries = [[Fraction(sum(a * right[k][j] for k, a in enumerate(row)))
                for j in range(cols)] for row in left]
    if fractions:
        for i in rng.sample(range(rows), rows // 3):
            q = rng.choice((2, 3, 6, 7))
            entries[i] = [x / q for x in entries[i]]
    return Matrix(rows, cols, entries)


DENSE_CASES = [  # rows, cols, planted rank, density, fraction rows
    (40, 60, 25, 1.0, False), (40, 60, 25, 0.3, True), (60, 40, 33, 0.5, False),
    (40, 60, 40, 0.2, True), (30, 30, 30, 1.0, True), (30, 30, 30, 0.15, False),
    (30, 30, 22, 0.4, True), (12, 50, 7, 1.0, True), (50, 12, 12, 0.25, False),
]


@pytest.fixture(scope="module")
def dense_matrices():
    rng = random.Random(2025)
    return [(_planted(rng, *case), case[2]) for case in DENSE_CASES]


def _eager_echelon(rows):
    """(pivot column, row) pairs by the same rule as ``_echelon`` with every
    eliminated row divided by its content at once."""
    from mpla.linalg import _eliminate, _primitive

    by_lead = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append(_primitive(row))
    pivots = []
    while by_lead:
        c = min(by_lead)
        bucket = by_lead.pop(c)
        pivot_row = min(bucket, key=len)
        pivots.append((c, pivot_row))
        for row in bucket:
            if row is not pivot_row:
                row = _eliminate(row, pivot_row, c)
                if row:
                    by_lead.setdefault(min(row), []).append(_primitive(row))
    return pivots


def test_dense_ranks_match_bareiss_and_sympy(dense_matrices):
    for m, r in dense_matrices:
        assert rank(m) == rank(m.transpose()) == bareiss_rank(m) == sympy_rank(m) == r


def test_dense_echelon_rows_are_primitive_with_rising_leads(dense_matrices):
    from math import gcd

    from mpla.linalg import _echelon, _scaled_columns, _scaled_rows

    for m, r in dense_matrices:
        for lines in (_scaled_rows(m)[1], _scaled_columns(m)[1]):
            before = [dict(line) for line in lines]
            echelon = _echelon(lines)
            assert echelon == _eager_echelon(lines)
            for reduce in (False, True):
                echelon = _echelon(lines, reduce)
                leads = [c for c, _ in echelon]
                assert len(leads) == r and leads == sorted(set(leads))
                for c, row in echelon:
                    assert min(row) == c and gcd(*row.values()) == 1
                    if reduce:
                        assert not set(leads) & set(row) - {c}
            assert lines == before        # read, not changed


def test_dense_cleared_pivots_are_the_rref_pivot_columns(dense_matrices):
    rng = random.Random(7)
    for m, r in dense_matrices:
        for share in (0.0, 0.3, 0.7):
            clear = {j for j in range(m.cols) if rng.random() < share}
            kept = [m.column(j) for j in range(m.cols) if j not in clear]
            pivots = set()
            got = rank(m, clear, pivots)
            assert sorted(pivots) == dense_rref(kept, len(kept), m.rows)
            assert got == len(pivots)
            if not clear:
                assert got == r


def test_dense_kernel_solve_and_invert_match_gauss_jordan(dense_matrices):
    rng = random.Random(11)
    for m, r in dense_matrices:
        assert kernel_basis(m) == dense_kernel_basis(m)
        consistent = m.mul_vec([rand_fraction(rng) for _ in range(m.cols)])
        for b in (consistent, [rand_fraction(rng) for _ in range(m.rows)]):
            assert solve(m, b) == dense_solve(m, b)
        if m.rows == m.cols:
            expected = dense_invert(m)
            assert (expected is None) == (r < m.rows)
            if expected is None:
                with pytest.raises(DimensionMismatch):
                    invert(m)
            else:
                assert invert(m).entries == expected


def test_content_is_cleared_once_per_input_row_and_per_pivot_row(dense_matrices):
    import mpla.linalg as linalg

    real = linalg._primitive
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_primitive", lambda row: calls.append(1) or real(row))
        for m, r in dense_matrices:
            lines = linalg._scaled_rows(m)[1]
            inputs = sum(1 for line in lines if line)
            calls.clear()
            echelon = linalg._echelon(lines)
            assert len(calls) == inputs + r
            # back-substitution clears each row it changes once more
            leads = {c for c, _ in echelon}
            changed = sum(1 for c, row in echelon if leads & set(row) - {c})
            calls.clear()
            linalg._echelon(lines, reduce=True)
            assert len(calls) == inputs + r + changed
