"""Exact linear algebra over the rationals.

Matrices are lists of rows of ``fractions.Fraction``.  One sparse integer
echelon underlies rank and the reduced echelon form: each row becomes a
``{column: int}`` dict with its denominators and content cleared, and is
reduced at its leading column against the primitive pivot rows found so far,
until it vanishes or leads a new pivot column.  Dividing out each row's
content keeps the integers small without modular arithmetic.  Everything
downstream (rank, kernels, reduced echelon forms, solving) is deterministic:
pivots are always the first usable column, and free variables are ordered by
column index.

The matrices met here (CE differentials, ι_ξ, cocycles) are mostly zeros, so
products, reductions and elimination steps touch only nonzero entries: no
arithmetic ever runs on a zero.  This changes no output.  The reduced row
echelon form of a row space is unique, and rank, kernel bases and solutions
(free variables zero) are functions of it, so neither the sparse storage nor
the order of elimination can move a single value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[Vector]

_ZERO = Fraction(0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], piv: dict[int, int],
               c: int) -> dict[int, int]:
    """The primitive combination of row and piv with no entry in column c."""
    g = gcd(row[c], piv[c])
    a, b = row[c] // g, piv[c] // g
    out = {j: b * v for j, v in row.items()}
    for j, v in piv.items():
        w = out.get(j, 0) - a * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _echelon(mat: Matrix) -> dict[int, dict[int, int]]:
    """Primitive integer rows spanning mat's row space, keyed by their
    distinct leading columns (the pivot columns of rref(mat))."""
    pivots: dict[int, dict[int, int]] = {}
    for row in mat:
        nonzero = [(j, f) for j, f in enumerate(row) if f]
        mult = lcm(*(f.denominator for _, f in nonzero))
        ints = _primitive({j: f.numerator * (mult // f.denominator)
                           for j, f in nonzero})
        while ints:
            c = min(ints)
            if c not in pivots:
                pivots[c] = ints
                break
            ints = _eliminate(ints, pivots[c], c)
    return pivots


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Fraction; returns (R, pivot columns).

    Zero rows are dropped, so R has exactly rank(mat) rows.
    """
    ncols = len(mat[0]) if mat else 0
    ech = _echelon(mat)
    pivots = sorted(ech)
    # eliminate above each pivot, last pivot first
    for c in reversed(pivots):
        row = ech[c]
        for c2 in [j for j in row if j != c and j in ech]:
            row = _eliminate(row, ech[c2], c2)
        ech[c] = row
    rows = []
    for c in pivots:
        lead = ech[c][c]
        dense = [_ZERO] * ncols
        for j, v in ech[c].items():
            dense[j] = Fraction(v, lead)
        rows.append(dense)
    return rows, pivots


def rank(mat: Matrix) -> int:
    return len(_echelon(mat))


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
