"""Exact linear algebra over the rationals.

Matrices are lists of rows of ``fractions.Fraction``.  The elimination core
is fraction-free (Bareiss one-step division) on integer rows obtained by
clearing denominators, which keeps intermediate entries small without modular
arithmetic.  Everything downstream (rank, kernels, reduced echelon forms,
solving) is deterministic: pivots are always the first usable column, and
free variables are ordered by column index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[Vector]


def _int_rows(mat: Matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (row space preserved)."""
    out = []
    for row in mat:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        ints = [int(f * mult) for f in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns (echelon rows, pivot columns)."""
    rows = [row[:] for row in rows]
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
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fac = rows[i][c]
            # the one-step division stays exact only if every row below is
            # updated, including rows with a zero factor
            rows[i] = [(piv * rows[i][j] - fac * rows[r][j]) // prev
                       for j in range(ncols)]
        pivots.append(c)
        prev = piv
        r += 1
    return rows, pivots


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Fraction; returns (R, pivot columns).

    Zero rows are dropped, so R has exactly rank(mat) rows.
    """
    if not mat:
        return [], []
    ncols = len(mat[0])
    ech, pivots = _bareiss(_int_rows(mat))
    rows = [[Fraction(v) for v in ech[i]] for i in range(len(pivots))]
    # normalize pivots to 1, then eliminate above
    for i, c in enumerate(pivots):
        piv = rows[i][c]
        rows[i] = [v / piv for v in rows[i]]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for k in range(i):
            fac = rows[k][c]
            if fac:
                rows[k] = [rows[k][j] - fac * rows[i][j] for j in range(ncols)]
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
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][j]
        basis.append(vec)
    return basis


def residual(vec: Vector, rows: Matrix, pivots: list[int]) -> Vector:
    """Reduce vec modulo the row space given in rref form."""
    out = list(vec)
    for i, c in enumerate(pivots):
        fac = out[c]
        if fac:
            out = [out[j] - fac * rows[i][j] for j in range(len(out))]
    return out


def in_row_space(vec: Vector, rows: Matrix, pivots: list[int]) -> bool:
    return all(v == 0 for v in residual(vec, rows, pivots))


def solve(mat: Matrix, rhs: Vector, column_order: list[int] | None = None):
    """One solution of mat @ x = rhs (free variables zero), or None.

    ``column_order`` permutes the columns before elimination, which selects a
    different pivot set and hence a different particular solution; the default
    is the natural order.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if nrows == 0:
        return [Fraction(0)] * ncols if all(v == 0 for v in rhs) else None
    order = column_order if column_order is not None else list(range(ncols))
    aug = [[mat[i][j] for j in order] + [rhs[i]] for i in range(nrows)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[order[c]] = rows[i][ncols]
    return sol


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    n = len(b)
    return [[sum((row[k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[a[i][j] - b[i][j] for j in range(len(a[i]))] for i in range(len(a))]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


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
    scale = Fraction(1)
    int_rows = []
    for row in mat:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        scale *= mult
        int_rows.append([int(f * mult) for f in row])
    rows = int_rows
    prev = 1
    sign = 1
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            sign = -sign
        piv = rows[c][c]
        for i in range(c + 1, n):
            rows[i] = [(piv * rows[i][j] - rows[i][c] * rows[c][j]) // prev
                       for j in range(n)]
        prev = piv
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def inverse(mat: Matrix) -> Matrix:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(mat)
    aug = [list(mat[i]) + list(identity(n)[i]) for i in range(n)]
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
