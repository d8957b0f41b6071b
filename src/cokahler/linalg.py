"""Exact linear algebra over the rationals.

Matrices are lists of rows of ``fractions.Fraction``.  The elimination core
is fraction-free (Bareiss one-step division) on integer rows obtained by
clearing denominators, which keeps intermediate entries small without modular
arithmetic.  Everything downstream (rank, kernels, reduced echelon forms,
solving) is deterministic: pivots are always the first usable column, and
free variables are ordered by column index.

The matrices met here (CE differentials, ι_ξ, cocycles) are mostly zeros, so
products, reductions and elimination steps touch only nonzero entries: no
``Fraction`` operation ever runs on a zero.  This changes no output.  The
reduced row echelon form of a row space is unique, and rank, kernel bases and
solutions (free variables zero) are functions of it, so skipping zeros in
exact arithmetic cannot move a single value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[Vector]

_ZERO = Fraction(0)


def _clear_denominators(row: Vector) -> tuple[int, list[int]]:
    """(m, m * row) for the lcm m of the row's denominators; zeros stay 0."""
    nonzero = [(j, f.numerator, f.denominator) for j, f in enumerate(row) if f]
    mult = lcm(*(q for _, _, q in nonzero))
    ints = [0] * len(row)
    for j, p, q in nonzero:
        ints[j] = p * (mult // q)
    return mult, ints


def _int_rows(mat: Matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (row space preserved)."""
    out = []
    for row in mat:
        ints = _clear_denominators(row)[1]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _eliminate_below(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One Bareiss step: clear column c under row r; returns the pivot."""
    top = rows[r]
    piv = top[c]
    # the one-step division stays exact only if every row below is
    # updated, including rows with a zero factor
    for i in range(r + 1, len(rows)):
        row = rows[i]
        fac = row[c]
        if fac:
            rows[i] = [(piv * a - fac * b) // prev for a, b in zip(row, top)]
        elif piv != prev:
            rows[i] = [piv * a // prev if a else 0 for a in row]
    return piv


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns (echelon rows, pivot columns)."""
    rows = list(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
        prev = _eliminate_below(rows, r, c, prev)
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Fraction; returns (R, pivot columns).

    Zero rows are dropped, so R has exactly rank(mat) rows.
    """
    if not mat:
        return [], []
    ech, pivots = _bareiss(_int_rows(mat))
    rows = [[Fraction(v, row[c]) if v else _ZERO for v in row]
            for row, c in zip(ech, pivots)]
    # eliminate above each pivot, last pivot first
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        nonzero = [(j, v) for j, v in enumerate(rows[i]) if v]
        for row in rows[:i]:
            fac = row[c]
            if fac:
                for j, v in nonzero:
                    row[j] -= fac * v
    return rows, pivots


def rank(mat: Matrix) -> int:
    if not mat:
        return 0
    return len(_bareiss(_int_rows(mat))[1])


def kernel_basis(mat: Matrix, ncols: int) -> list[Vector]:
    """Basis of {x : mat @ x = 0}, one vector per free column, ascending."""
    if not mat:
        return [unit_vector(ncols, j) for j in range(ncols)]
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = unit_vector(ncols, j)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][j]
        basis.append(vec)
    return basis


def residual(vec: Vector, rows: Matrix, pivots: list[int]) -> Vector:
    """Reduce vec modulo the row space given in rref form."""
    out = list(vec)
    for row, c in zip(rows, pivots):
        fac = out[c]
        if fac:
            for j, v in enumerate(row):
                if v:
                    out[j] -= fac * v
    return out


def in_row_space(vec: Vector, rows: Matrix, pivots: list[int]) -> bool:
    return not any(residual(vec, rows, pivots))


def solve(mat: Matrix, rhs: Vector):
    """One solution of mat @ x = rhs (free variables zero), or None."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if nrows == 0:
        return [Fraction(0)] * ncols if all(v == 0 for v in rhs) else None
    rows, pivots = rref([[*mat[i], rhs[i]] for i in range(nrows)])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    ncols = len(b[0])
    b_nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc = [_ZERO] * ncols
        for e, nonzero in zip(row, b_nonzero):
            if e:
                for j, x in nonzero:
                    acc[j] += e * x
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum((row[k] * x for k, x in nonzero if row[k]), _ZERO) for row in a]


def combine(coeffs: Vector, rows: Matrix, n: int) -> Vector:
    """The length-n vector sum of coeffs[i] * rows[i]."""
    out = [_ZERO] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                if v:
                    out[j] += c * v
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[a[i][j] - b[i][j] for j in range(len(a[i]))] for i in range(len(a))]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def unit_vector(n: int, j: int) -> Vector:
    vec = [Fraction(0)] * n
    vec[j] = Fraction(1)
    return vec


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def det(mat: Matrix) -> Fraction:
    """Determinant via fraction-free elimination with denominator tracking."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    scale = 1
    rows = []
    for row in mat:
        mult, ints = _clear_denominators(row)
        scale *= mult
        rows.append(ints)
    prev = 1
    sign = 1
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            sign = -sign
        prev = _eliminate_below(rows, c, c, prev)
    return Fraction(sign * rows[n - 1][n - 1], scale)


def inverse(mat: Matrix) -> Matrix:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(mat)
    aug = [list(row) + unit for row, unit in zip(mat, identity(n))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def transpose(mat: Matrix) -> Matrix:
    if not mat:
        return []
    return [[mat[i][j] for i in range(len(mat))] for j in range(len(mat[0]))]


def same_span(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Whether two lists of row vectors span the same subspace."""
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return rank(rows_a or rows_b) == 0
    return rref(rows_a) == rref(rows_b)
