"""Exact linear algebra against an independent oracle (sympy)."""

import random
from fractions import Fraction

import pytest
import sympy

from cokahler import linalg


def random_matrix(rng, nrows, ncols, denom=4):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, denom))
             for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(mat):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in mat])


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert linalg.rank(mat) == to_sympy(mat).rank()


@pytest.mark.parametrize("seed", range(12))
def test_kernel_is_a_nullspace_basis(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    mat = random_matrix(rng, nrows, ncols)
    kern = linalg.kernel_basis(mat, ncols)
    for vec in kern:
        assert all(v == 0 for v in linalg.mat_vec(mat, vec))
    assert len(kern) == ncols - to_sympy(mat).rank()
    if kern:
        assert linalg.rank(kern) == len(kern)


@pytest.mark.parametrize("seed", range(12))
def test_rref_is_reduced_and_spans(seed):
    rng = random.Random(seed)
    mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    rows, pivots = linalg.rref(mat)
    for i, c in enumerate(pivots):
        assert rows[i][c] == 1
        assert all(rows[k][c] == 0 for k in range(len(rows)) if k != i)
    # same row space
    assert to_sympy(mat).rank() == len(rows)
    if rows:
        stacked = [list(r) for r in mat] + [list(r) for r in rows]
        assert linalg.rank(stacked) == len(rows)


@pytest.mark.parametrize("seed", range(12))
def test_solve_finds_solutions(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    mat = random_matrix(rng, nrows, ncols)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    rhs = linalg.mat_vec(mat, x)
    sol = linalg.solve(mat, rhs)
    assert sol is not None
    assert linalg.mat_vec(mat, sol) == rhs


def test_solve_detects_inconsistency():
    mat = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert linalg.solve(mat, [Fraction(1), Fraction(2)]) is None


def test_solve_sets_free_variables_to_zero():
    # x + y = 1: the pivot is the first column, so y is free and set to zero
    mat = [[Fraction(1), Fraction(1)]]
    assert linalg.solve(mat, [Fraction(1)]) == [Fraction(1), Fraction(0)]


@pytest.mark.parametrize("seed", range(8))
def test_det_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    mat = random_matrix(rng, n, n)
    got = linalg.det(mat)
    want = to_sympy(mat).det()
    assert sympy.Rational(got.numerator, got.denominator) == want


def test_inverse_round_trip():
    rng = random.Random(7)
    while True:
        mat = random_matrix(rng, 4, 4)
        if linalg.det(mat) != 0:
            break
    inv = linalg.inverse(mat)
    assert linalg.mat_mul(mat, inv) == linalg.identity(4)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_same_span_detects_equality_and_difference():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    c = [[Fraction(1), Fraction(1)]]
    assert linalg.same_span(a, b)
    assert not linalg.same_span(a, c)


def test_residual_reduces_into_complement():
    rows, pivots = linalg.rref([[Fraction(1), Fraction(2), Fraction(0)]])
    vec = [Fraction(3), Fraction(6), Fraction(5)]
    assert linalg.residual(vec, rows, pivots) == [0, 0, Fraction(5)]
    assert linalg.in_row_space([Fraction(2), Fraction(4), Fraction(0)],
                               rows, pivots)


# -- mostly-zero matrices --------------------------------------------------------
#
# CE differentials and cocycles are mostly zeros, and products and elimination
# skip zero entries, so these cases hold 60-90 % zeros.

SPARSE_CASES = [(seed, zeros) for seed in range(8) for zeros in (0.6, 0.75, 0.9)]


def sparse_matrix(rng, nrows, ncols, zeros):
    return [[Fraction(0) if rng.random() < zeros else
             Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
             for _ in range(ncols)] for _ in range(nrows)]


def from_sympy(mat):
    return [[Fraction(int(v.p), int(v.q)) for v in mat.row(i)]
            for i in range(mat.rows)]


def sparse_case(seed, zeros):
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(5, 12), rng.randint(5, 12)
    return rng, sparse_matrix(rng, nrows, ncols, zeros), ncols


@pytest.mark.parametrize("seed,zeros", SPARSE_CASES)
def test_sparse_rref_rank_and_kernel_match_sympy(seed, zeros):
    _, mat, ncols = sparse_case(seed, zeros)
    ref, ref_pivots = to_sympy(mat).rref()
    rows, pivots = linalg.rref(mat)
    assert pivots == list(ref_pivots)
    assert rows == from_sympy(ref)[:len(ref_pivots)]
    assert linalg.rank(mat) == len(ref_pivots)
    kernel = [[Fraction(int(v.p), int(v.q)) for v in vec]
              for vec in to_sympy(mat).nullspace()]
    assert linalg.kernel_basis(mat, ncols) == kernel


@pytest.mark.parametrize("seed,zeros", SPARSE_CASES)
def test_sparse_solve_and_products_match_sympy(seed, zeros):
    rng, mat, ncols = sparse_case(seed, zeros)
    x = sparse_matrix(rng, 1, ncols, zeros)[0]
    rhs = linalg.mat_vec(mat, x)
    assert rhs == from_sympy((to_sympy(mat) * to_sympy([x]).T).T)[0]
    sol, params = to_sympy(mat).gauss_jordan_solve(to_sympy([rhs]).T)
    want = from_sympy(sol.subs({t: 0 for t in params}).T)[0]
    assert linalg.solve(mat, rhs) == want
    other = sparse_matrix(rng, ncols, rng.randint(1, 9), zeros)
    assert linalg.mat_mul(mat, other) == \
        from_sympy(to_sympy(mat) * to_sympy(other))


def test_rows_with_a_zero_factor_are_rescaled_when_the_pivot_changes():
    # the first pivot is 3; the row (0, 1, 0) has a zero factor under it and
    # must become (0, 3, 0), or the next step's division by 3 truncates and
    # the third row reads (0, 0, 0)
    mat = [[Fraction(v) for v in row]
           for row in ((3, 0, 1), (0, 1, 0), (-2, 3, 0))]
    assert linalg.rank(mat) == 3
    assert linalg.rref(mat) == (linalg.identity(3), [0, 1, 2])
    assert linalg.det(mat) == to_sympy(mat).det() == 2
