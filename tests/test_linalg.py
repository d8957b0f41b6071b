"""Exact linear algebra against an independent oracle (sympy)."""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cokahler import linalg
from cokahler.errors import StructureError
from cokahler.geometry import LieModel


def random_matrix(rng, nrows, ncols, denom=4):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, denom))
             for _ in range(ncols)] for _ in range(nrows)]


def sparse_rows(mat):
    return [linalg.sparse(row) for row in mat]


def dense_rows(mat, ncols):
    return [linalg.dense(row, ncols) for row in mat]


def to_sympy(mat):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in mat])


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert linalg.rank(sparse_rows(mat)) == to_sympy(mat).rank()


@pytest.mark.parametrize("seed", range(12))
def test_kernel_is_a_nullspace_basis(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    mat = random_matrix(rng, nrows, ncols)
    kern = linalg.kernel_span(sparse_rows(mat), ncols).rows
    for vec in kern:
        assert all(v == 0 for v in linalg.dense(
            linalg.mat_vec(sparse_rows(mat), vec), nrows))
    assert len(kern) == ncols - to_sympy(mat).rank()
    if kern:
        assert linalg.rank(kern) == len(kern)


@pytest.mark.parametrize("seed", range(12))
def test_rref_is_reduced_and_spans(seed):
    rng = random.Random(seed)
    mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    rows, pivots = linalg.rref(sparse_rows(mat))
    rows = dense_rows(rows, len(mat[0]))
    for i, c in enumerate(pivots):
        assert rows[i][c] == 1
        assert all(rows[k][c] == 0 for k in range(len(rows)) if k != i)
    # same row space
    assert to_sympy(mat).rank() == len(rows)
    if rows:
        stacked = [list(r) for r in mat] + [list(r) for r in rows]
        assert linalg.rank(sparse_rows(stacked)) == len(rows)


@pytest.mark.parametrize("seed", range(12))
def test_solve_finds_solutions(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    mat = random_matrix(rng, nrows, ncols)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    rhs = linalg.mat_vec(sparse_rows(mat), linalg.sparse(x))
    sol = linalg.solve_factored(linalg.factor(sparse_rows(mat), ncols), rhs)
    assert sol is not None
    assert linalg.mat_vec(sparse_rows(mat), sol) == rhs


def test_solve_detects_inconsistency():
    mat = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert linalg.solve_factored(linalg.factor(sparse_rows(mat), 2),
                                 {0: Fraction(1), 1: Fraction(2)}) is None


def test_solve_sets_free_variables_to_zero():
    # x + y = 1: the pivot is the first column, so y is free and set to zero
    mat = [[Fraction(1), Fraction(1)]]
    sol = linalg.solve_factored(linalg.factor(sparse_rows(mat), 2),
                                {0: Fraction(1)})
    assert linalg.dense(sol, 2) == [Fraction(1), Fraction(0)]


def leading_minors(mat):
    return [to_sympy([row[:k] for row in mat[:k]]).det()
            for k in range(1, len(mat) + 1)]


@pytest.mark.parametrize("seed", range(8))
def test_metric_check_matches_sympy_leading_minors(seed):
    # the metric is rejected exactly when a leading minor is <= 0, and the
    # message names the first such minor
    rng = random.Random(seed)
    outcomes = set()
    for trial in range(8):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        # a shift of 40 makes the matrix diagonally dominant, hence definite
        shift = 40 if trial % 2 else 0
        for i in range(n):
            mat[i][i] += shift
            for j in range(i):
                mat[i][j] = mat[j][i]
        bad = next((k for k, minor in enumerate(leading_minors(mat), 1)
                    if minor <= 0), None)
        outcomes.add(bad is None)
        if bad is None:
            assert LieModel(n, {}, metric=mat).metric == sparse_rows(mat)
        else:
            with pytest.raises(StructureError,
                               match=rf"\(leading {bad}x{bad} minor\)$"):
                LieModel(n, {}, metric=mat)
    assert outcomes == {True, False}


def fraction_pivot_failure(mat):
    """The first leading minor <= 0 (1-based), or None, found by elimination
    in Fractions without row exchanges: the k-th pivot is minor_k /
    minor_{k-1} while the earlier minors are positive."""
    rows = [[Fraction(v) for v in row] for row in mat]
    for k in range(len(rows)):
        if rows[k][k] <= 0:
            return k + 1
        for row in rows[k + 1:]:
            fac = row[k] / rows[k][k]
            row[k:] = [a - fac * b for a, b in zip(row[k:], rows[k][k:])]
    return None


METRIC_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix of ints and Fractions (integral ones among them),
    its diagonal shifted by 0 or by enough to make it definite."""
    n = draw(st.integers(1, 5))
    shift = draw(st.sampled_from([0, 0, 30]))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            mat[i][j] = mat[j][i] = draw(METRIC_ENTRIES) + shift * (i == j)
    return mat


@settings(derandomize=True, max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_fraction_free_metric_check_matches_the_fraction_pivots(mat):
    # the metric check eliminates in integers (Bareiss); it rejects exactly
    # the metrics the elimination in Fractions rejects, naming the same
    # leading minor
    bad = fraction_pivot_failure(mat)
    if bad is None:
        assert LieModel(len(mat), {}, metric=mat).metric == sparse_rows(mat)
    else:
        with pytest.raises(StructureError,
                           match=rf"\(leading {bad}x{bad} minor\)$"):
            LieModel(len(mat), {}, metric=mat)


def test_inverse_round_trip():
    # metric_inverse on a random symmetric positive definite A^t A + I,
    # against sympy's inverse
    rng = random.Random(7)
    a = random_matrix(rng, 4, 4)
    g = [[sum(a[k][i] * a[k][j] for k in range(4)) + (i == j)
          for j in range(4)] for i in range(4)]
    m = LieModel(4, {}, metric=g)
    inv = m.metric_inverse()
    assert linalg.mat_mul(m.metric, inv) == linalg.identity(4)
    oracle = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in g]).inv()
    assert [linalg.dense(row, 4) for row in inv] == \
        [[Fraction(int(oracle[i, j].p), int(oracle[i, j].q)) for j in range(4)]
         for i in range(4)]


def test_inverse_rejects_singular():
    # a singular metric never reaches metric_inverse: it is not positive
    # definite
    with pytest.raises(StructureError, match="not positive definite"):
        LieModel(2, {}, metric=[[Fraction(1), Fraction(2)],
                                [Fraction(2), Fraction(4)]])


def test_same_span_detects_equality_and_difference():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    c = [[Fraction(1), Fraction(1)]]
    d = [[Fraction(2), Fraction(0)]]
    assert linalg.Span(sparse_rows(a)) == linalg.Span(sparse_rows(b))
    assert linalg.Span(sparse_rows(a)) != linalg.Span(sparse_rows(c))
    # one dimension each, different lines
    assert linalg.Span(sparse_rows(c)) != linalg.Span(sparse_rows(d))


def test_residual_reduces_into_complement():
    span = linalg.Span(sparse_rows([[Fraction(1), Fraction(2), Fraction(0)]]))
    vec = linalg.sparse([Fraction(3), Fraction(6), Fraction(5)])
    assert linalg.dense(span.residual(vec), 3) == [0, 0, Fraction(5)]
    assert linalg.sparse([Fraction(2), Fraction(4), Fraction(0)]) in span


# -- mostly-zero matrices --------------------------------------------------------
#
# CE differentials and cocycles are mostly zeros, and products and elimination
# skip zero entries, so these cases hold 60-90 % zeros.

# Named inputs for the elimination's shortcuts and for kernels at their
# extremes: an empty row is skipped, and a single entry enters as a unit row
# only when its column holds no pivot yet.  A single entry under a pivot
# (at its first column for rref, at its last for kernel_span) must still be
# eliminated: dropping it loses rank.
EDGE_CASES = {
    "zero-rows-interleaved": [[0, 0, 0, 0, 0], [1, 2, 0, -1, 0],
                              [0, 0, 0, 0, 0], [0, 0, 3, 1, 0],
                              [0, 0, 0, 0, 0], [2, 4, 3, -1, 0],
                              [0, 0, 0, 0, 0]],
    "unit-row-under-a-first-column-pivot": [[1, 1], [2, 0]],
    "unit-row-under-a-last-column-pivot": [[1, 0, 1], [0, 1, 1], [0, 0, -5]],
    "unit-rows-descending": [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
                             [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]],
    "unit-rows-repeated": [[0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 1, 0, 0], [1, 0, 0, 0]],
    "negative-and-fraction-single-entries": [
        [0, -3, 0, 0], [Fraction(2, 3), 0, 0, 0], [0, Fraction(-1, 2), 0, 0],
        [1, Fraction(1, 2), 0, 2], [0, 0, 0, Fraction(-7, 4)]],
    "all-zero": [[0, 0, 0], [0, 0, 0]],
    "full-rank-square": [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    "columns-beyond-the-last-used": [[1, 2, 0, 0, 0], [0, 1, 3, 0, 0]],
}

SPARSE_CASES = [(seed, zeros) for seed in range(8) for zeros in (0.6, 0.75, 0.9)]
SPARSE_CASES += [pytest.param(name, 0.75, id=name) for name in EDGE_CASES]


def sparse_matrix(rng, nrows, ncols, zeros):
    return [[Fraction(0) if rng.random() < zeros else
             Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
             for _ in range(ncols)] for _ in range(nrows)]


def from_sympy(mat):
    return [[Fraction(int(v.p), int(v.q)) for v in mat.row(i)]
            for i in range(mat.rows)]


def sparse_case(seed, zeros):
    if seed in EDGE_CASES:
        mat = [[Fraction(v) for v in row] for row in EDGE_CASES[seed]]
        return random.Random(seed), mat, len(mat[0])
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(5, 12), rng.randint(5, 12)
    return rng, sparse_matrix(rng, nrows, ncols, zeros), ncols


@contextmanager
def counting_eliminations():
    """The lengths of the matrices ``linalg`` eliminates inside the block."""
    calls = []
    honest = linalg._echelon

    def echelon(mat, *lead):
        calls.append(len(mat))
        return honest(mat, *lead)

    with mock.patch.object(linalg, "_echelon", echelon):
        yield calls


def assert_elimination_matches_sympy(rng, mat, ncols):
    ref, ref_pivots = to_sympy(mat).rref()
    want = (sparse_rows(from_sympy(ref)[:len(ref_pivots)]), list(ref_pivots))
    kernel = sparse_rows([[Fraction(int(v.p), int(v.q)) for v in vec]
                          for vec in to_sympy(mat).nullspace()])
    reduced_kernel = linalg.rref(kernel)
    # reduced rows are kept as given, with no elimination
    with counting_eliminations() as calls:
        for rows, pivots in (want, reduced_kernel):
            span = linalg.Span(rows)
            assert (span.rows, span.pivots) == (rows, pivots)
            assert all(a is b for a, b in zip(span.rows, rows))
    assert calls == []
    # row order, nonzero row scaling and repeated rows leave the row space,
    # hence the reduced form, the rank and the kernel, unchanged
    shuffled = rng.sample(mat, len(mat))
    factors = [Fraction(rng.choice((-5, -1, 2, 7)), rng.choice((1, 3, 4)))
               for _ in mat]
    scaled = [[f * v for v in row] for f, row in zip(factors, mat)]
    repeated = mat + rng.sample(mat, len(mat))[:3]
    for variant in map(sparse_rows, (mat, shuffled, scaled, repeated)):
        assert linalg.rref(variant) == want
        assert linalg.rank(variant) == len(ref_pivots)
        # one elimination gives the kernel's reduced echelon rows
        with counting_eliminations() as calls:
            span = linalg.kernel_span(variant, ncols)
        assert span == linalg.Span(kernel)
        assert (span.rows, span.pivots) == reduced_kernel
        assert len(calls) == 1


@pytest.mark.parametrize("seed,zeros", SPARSE_CASES)
def test_sparse_rref_rank_and_kernel_match_sympy(seed, zeros):
    rng, mat, ncols = sparse_case(seed, zeros)
    assert_elimination_matches_sympy(rng, mat, ncols)


@pytest.mark.parametrize("ncols", (8, 11))
def test_hilbert_rref_rank_and_kernel_match_sympy(ncols):
    # entries 1/(i+j+1): every row has a large lcm of denominators, and the
    # eliminated rows grow large integers with a common content to remove
    mat = [[Fraction(1, i + j + 1) for j in range(ncols)] for i in range(8)]
    assert_elimination_matches_sympy(random.Random(ncols), mat, ncols)


@pytest.mark.parametrize("seed,zeros", SPARSE_CASES)
def test_sparse_solve_and_products_match_sympy(seed, zeros):
    rng, mat, ncols = sparse_case(seed, zeros)
    x = sparse_matrix(rng, 1, ncols, zeros)[0]
    rhs = linalg.mat_vec(sparse_rows(mat), linalg.sparse(x))
    assert rhs == linalg.sparse(
        from_sympy((to_sympy(mat) * to_sympy([x]).T).T)[0])
    sol, params = to_sympy(mat).gauss_jordan_solve(
        to_sympy([linalg.dense(rhs, len(mat))]).T)
    want = linalg.sparse(from_sympy(sol.subs({t: 0 for t in params}).T)[0])
    assert linalg.solve_factored(linalg.factor(sparse_rows(mat), ncols),
                                 rhs) == want
    other = sparse_matrix(rng, ncols, rng.randint(1, 9), zeros)
    assert linalg.mat_mul(sparse_rows(mat), sparse_rows(other)) == \
        sparse_rows(from_sympy(to_sympy(mat) * to_sympy(other)))


def test_kernel_span_of_no_rows_is_every_column():
    for ncols in (0, 1, 4):
        span = linalg.kernel_span([], ncols)
        assert (span.rows, span.pivots) == (linalg.identity(ncols),
                                            list(range(ncols)))


@pytest.mark.parametrize("mat", [
    [[2, 0, 1], [0, 1, 0]],                 # a leading 2
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],      # an entry at another's lead
    [[0, 1, 0], [1, 0, 2]],                 # descending leading columns
    [[1, 2], [0, 0], [0, 1]],               # a zero row
], ids=["leading-two", "entry-at-a-lead", "descending-leads", "zero-row"])
def test_span_reduces_rows_that_are_not_yet_reduced(mat):
    mat = [[Fraction(v) for v in row] for row in mat]
    reduced, pivots = to_sympy(mat).rref()
    span = linalg.Span(sparse_rows(mat))
    assert (span.rows, span.pivots) == (
        sparse_rows(from_sympy(reduced)[:len(pivots)]), list(pivots))


def test_rows_with_a_zero_factor_are_rescaled_when_the_pivot_changes():
    # the first pivot is 3 and the row (0, 1, 0) has a zero factor under it;
    # a fraction-free elimination that leaves that row unscaled truncates at
    # the next division by 3 and reads the third row as (0, 0, 0)
    mat = [[Fraction(v) for v in row]
           for row in ((3, 0, 1), (0, 1, 0), (-2, 3, 0))]
    assert linalg.rank(sparse_rows(mat)) == 3
    assert linalg.rref(sparse_rows(mat)) == (linalg.identity(3), [0, 1, 2])


# -- random sparse matrices against sympy ----------------------------------------

ENTRIES = st.sampled_from([Fraction(0)] * 6 + [Fraction(v, d) for v in (-3, -1, 1, 2)
                                               for d in (1, 2, 3)])


@st.composite
def sparse_cases(draw):
    """A rational matrix with dead columns, empty rows and repeated rows, as
    dense rows, with its column count."""
    ncols = draw(st.integers(1, 7))
    dead = draw(st.sets(st.integers(0, ncols - 1)))
    mat = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                        max_size=6))
    mat = [[Fraction(0) if j in dead else v for j, v in enumerate(row)]
           for row in mat]
    mat += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    if mat:
        mat += [mat[i] for i in draw(st.lists(st.integers(0, len(mat) - 1),
                                              max_size=3))]
    return [mat[i] for i in draw(st.permutations(range(len(mat))))], ncols


def exact_sympy(mat, ncols):
    return sympy.Matrix(len(mat), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in mat for v in row])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sparse_cases(), st.data())
def test_sparse_forms_match_sympy(case, data):
    mat, ncols = case
    rows = sparse_rows(mat)
    for row, vec in zip(mat, rows):
        assert linalg.dense(vec, ncols) == row
        assert all(vec.values())
    ref = exact_sympy(mat, ncols)
    rank = ref.rank()
    assert linalg.rank(rows) == rank
    reduced, pivots = ref.rref()
    rref = linalg.rref(rows)
    assert rref == (sparse_rows(from_sympy(reduced)[:rank]), list(pivots))
    nullspace = [[Fraction(int(v.p), int(v.q)) for v in vec]
                 for vec in ref.nullspace()]
    assert linalg.kernel_span(rows, ncols) == linalg.Span(sparse_rows(nullspace))
    # residual and membership, for a vector inside or outside the row space
    vec = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    span = linalg.Span(rows)
    assert (span.rows, span.pivots) == rref
    rest = span.residual(linalg.sparse(vec))
    assert all(c not in rest for c in pivots)
    shift = [a - b for a, b in zip(linalg.dense(rest, ncols), vec)]
    assert exact_sympy(mat + [shift], ncols).rank() == rank
    inside = exact_sympy(mat + [vec], ncols).rank() == rank
    assert (linalg.sparse(vec) in span) == inside
    assert inside == (not rest)
    # solve, consistent or not; free variables are zero
    rhs = data.draw(st.lists(ENTRIES, min_size=len(mat), max_size=len(mat)))
    fac = linalg.factor(rows, ncols)
    sol = linalg.solve_factored(fac, linalg.sparse(rhs))
    # an entry of rhs past the last row is the equation 0 = 1
    assert linalg.solve_factored(fac, {len(mat): Fraction(1)}) is None
    if not mat:
        assert sol == {}
        return
    column = exact_sympy([[v] for v in rhs], 1)
    if ref.row_join(column).rank() > rank:
        assert sol is None
    else:
        ref_sol, params = ref.gauss_jordan_solve(column)
        want = from_sympy(ref_sol.subs({t: 0 for t in params}).T)[0]
        assert sol == linalg.sparse(want)


def one_shot_solve(rows, rhs, ncols):
    """The echelon solve without a factor: rref of [mat | rhs] once, x at
    each pivot read from the rhs column, None if that column is a pivot."""
    if max(rhs, default=-1) >= len(rows):
        return None
    reduced, pivots = linalg.rref([{**row, ncols: rhs[i]} if i in rhs else row
                                   for i, row in enumerate(rows)])
    if ncols in pivots:
        return None
    return {c: row[ncols] for row, c in zip(reduced, pivots) if ncols in row}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sparse_cases(), st.data())
def test_one_factor_solves_many_right_hand_sides(case, data):
    mat, ncols = case
    rows = sparse_rows(mat)
    fac = linalg.factor(rows, ncols)
    ref = exact_sympy(mat, ncols)
    pivot_columns = set(ref.rref()[1])
    solutions = [data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
                 for _ in range(3)]
    rhss = [linalg.mat_vec(rows, linalg.sparse(x)) for x in solutions]
    rhss += [linalg.sparse(data.draw(st.lists(
        ENTRIES, min_size=len(mat), max_size=len(mat)))) for _ in range(3)]
    # an entry at or past the row count is the equation 0 = b_i
    rhss += [{**rhs, len(mat) + data.draw(st.integers(0, 2)): Fraction(1)}
             for rhs in rhss[:2]]
    for rhs in rhss:
        sol = linalg.solve_factored(fac, rhs)
        assert sol == one_shot_solve(rows, rhs, ncols)
        if sol is not None:
            # a solution, zero on every free (non-pivot) column
            assert linalg.mat_vec(rows, sol) == rhs
            assert set(sol) <= pivot_columns
        if max(rhs, default=-1) >= len(mat):
            assert sol is None
            continue
        column = exact_sympy([[rhs.get(i, Fraction(0))]
                              for i in range(len(mat))], 1)
        if ref.row_join(column).rank() > ref.rank():
            assert sol is None
            continue
        if not mat:
            assert sol == {}
            continue
        ref_sol, params = ref.gauss_jordan_solve(column)
        want = linalg.sparse(
            from_sympy(ref_sol.subs({t: 0 for t in params}).T)[0])
        # keys in pivot order, the ascending order of the sparse oracle
        assert list(sol.items()) == list(want.items())


def test_a_left_null_row_makes_the_system_inconsistent():
    # x = 1 and 2x = 1: the transform's second row is the left null vector
    # (-2, 1), which is nonzero on the rhs
    rows = [{0: Fraction(1)}, {0: Fraction(2)}]
    fac = linalg.factor(rows, 1)
    assert linalg.solve_factored(fac, {0: Fraction(1), 1: Fraction(2)}) == \
        {0: Fraction(1)}
    assert linalg.solve_factored(fac, {0: Fraction(1), 1: Fraction(1)}) is None
    assert linalg.solve_factored(fac, {1: Fraction(1)}) is None


# -- ints where integral ---------------------------------------------------------
#
# An exact rational is an int where it is integral and a Fraction otherwise;
# the two compare equal, so a mixed matrix must give the values of its
# all-Fraction copy, and no value may become a float or a bool.

def mixed_rows(draw, mat):
    """Sparse rows of mat whose integral entries are drawn int or Fraction."""
    return [{j: v.numerator if v.denominator == 1 and draw(st.booleans())
             else v for j, v in enumerate(row) if v} for row in mat]


def all_fraction(rows):
    return [{j: Fraction(v) for j, v in row.items()} for row in rows]


def assert_exact(vectors):
    """Every value is an int or a Fraction, never a float or a bool."""
    for vec in vectors:
        assert all(type(v) in (int, Fraction) for v in vec.values()), vec


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sparse_cases(), st.data())
def test_mixed_int_and_fraction_entries_give_the_all_fraction_results(case,
                                                                     data):
    mat, ncols = case
    mixed = mixed_rows(data.draw, mat)
    fracs = all_fraction(mixed)
    rref = linalg.rref(mixed)
    assert rref == linalg.rref(fracs)
    assert_exact(rref[0])
    # an integral reduced entry is an int, from either input
    for rows in (rref[0], linalg.rref(fracs)[0]):
        assert all(type(v) is int for row in rows for v in row.values()
                   if Fraction(v).denominator == 1)
    kernel = linalg.kernel_span(mixed, ncols).rows
    assert kernel == linalg.kernel_span(fracs, ncols).rows
    assert_exact(kernel)
    vec = mixed_rows(data.draw, [data.draw(
        st.lists(ENTRIES, min_size=ncols, max_size=ncols))])[0]
    rest = linalg.Span(mixed).residual(vec)
    assert rest == linalg.Span(fracs).residual(all_fraction([vec])[0])
    assert_exact([rest])
    coeffs = mixed_rows(data.draw, [data.draw(
        st.lists(ENTRIES, min_size=len(mat), max_size=len(mat)))])[0]
    combined = linalg.combine(coeffs, mixed)
    assert combined == linalg.combine(all_fraction([coeffs])[0], fracs)
    assert_exact([combined])
    fac = linalg.factor(mixed, ncols)
    assert fac == linalg.factor(fracs, ncols)
    assert_exact(fac[1])
    rhs = linalg.mat_vec(mixed, vec)
    sol = linalg.solve_factored(fac, rhs)
    assert sol == linalg.solve_factored(linalg.factor(fracs, ncols),
                                        all_fraction([rhs])[0])
    assert sol is not None and linalg.mat_vec(mixed, sol) == rhs
    assert_exact([rhs, sol])



# -- Span: a subspace as its reduced echelon rows ---------------------------------

@st.composite
def span_pairs(draw):
    """Two rational matrices on the same columns: the second mixes the first's
    rows with random coefficients and may carry one more random row, so equal
    and unequal spans of equal dimension both occur."""
    mat, ncols = draw(sparse_cases())
    mixes = draw(st.lists(st.lists(ENTRIES, min_size=len(mat),
                                   max_size=len(mat)), max_size=5))
    other = [[sum((c * row[j] for c, row in zip(mix, mat)), Fraction(0))
              for j in range(ncols)] for mix in mixes]
    if draw(st.booleans()):
        other.append(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    return mat, other, ncols


@settings(derandomize=True, max_examples=80, deadline=None)
@given(span_pairs(), st.data())
def test_span_equality_membership_and_coords_match_sympy(case, data):
    a, b, ncols = case
    span_a, span_b = linalg.Span(sparse_rows(a)), linalg.Span(sparse_rows(b))
    rank_a, rank_b, rank_ab = (exact_sympy(m, ncols).rank()
                               for m in (a, b, a + b))
    assert len(span_a) == rank_a and len(span_b) == rank_b
    assert (span_a == span_b) == (rank_a == rank_b == rank_ab)
    # the same dimension, another subspace: a unit vector outside A in
    # place of A's last row
    outside = [j for j in range(ncols) if {j: 1} not in span_a]
    if span_a.rows and outside:
        swapped = linalg.Span(span_a.rows[:-1] + [{outside[0]: 1}])
        assert len(swapped) == rank_a and swapped != span_a
    # membership is a rank test, for B's rows and for a random vector
    for vec in b + [data.draw(st.lists(ENTRIES, min_size=ncols,
                                       max_size=ncols))]:
        inside = exact_sympy(a + [vec], ncols).rank() == rank_a
        assert (linalg.sparse(vec) in span_a) == inside
    # a member's coordinates are its coefficients on the rows, in row order
    coeffs = linalg.sparse(data.draw(st.lists(
        ENTRIES, min_size=rank_a, max_size=rank_a)))
    member = linalg.combine(coeffs, span_a.rows)
    assert member in span_a
    assert span_a.coords(member) == coeffs
    assert list(span_a.coords(member)) == sorted(coeffs)
    assert span_a.vector(span_a.coords(member)) == member


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sparse_cases(), st.data())
def test_row_order_moves_no_result(case, data):
    # rref, kernel_span, factor and Span see the row space, not the rows
    mat, ncols = case
    order = data.draw(st.permutations(range(len(mat))))
    rows = sparse_rows(mat)
    shuffled = [rows[i] for i in order]
    assert linalg.rref(shuffled) == linalg.rref(rows)
    assert linalg.kernel_span(shuffled, ncols).rows == \
        linalg.kernel_span(rows, ncols).rows
    assert linalg.Span(shuffled) == linalg.Span(rows)
    fac, fac_shuffled = linalg.factor(rows, ncols), linalg.factor(shuffled,
                                                                 ncols)
    assert fac_shuffled[0] == fac[0]
    # the same system with its equations reordered has the same solution
    x = linalg.sparse(data.draw(st.lists(ENTRIES, min_size=ncols,
                                         max_size=ncols)))
    rhs = linalg.mat_vec(rows, x)
    other = linalg.sparse(data.draw(st.lists(ENTRIES, min_size=len(mat),
                                             max_size=len(mat))))
    for b in (rhs, other):
        moved = {k: b[i] for k, i in enumerate(order) if i in b}
        assert linalg.solve_factored(fac_shuffled, moved) == \
            linalg.solve_factored(fac, b)
    assert linalg.solve_factored(fac, rhs) is not None

def test_sparse_and_identity_store_integral_values_as_ints():
    vec = linalg.sparse([Fraction(4, 2), True, 0, Fraction(1, 3), -3])
    assert vec == {0: 2, 1: 1, 3: Fraction(1, 3), 4: -3}
    assert [type(v) for v in vec.values()] == [int, int, Fraction, int]
    assert all(type(v) is int for row in linalg.identity(3)
               for v in row.values())
    assert linalg.dense({1: 2}, 2) == [0, 2]
    assert all(type(v) is Fraction for v in linalg.dense({1: 2}, 2))
