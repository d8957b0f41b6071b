"""Exact linear algebra over the rationals, on sparse vectors.

A vector is a ``{index: rational}`` dict with no zero values, and a matrix
is a list of such rows; the number of columns is the caller's to know.
Cochains, cohomology classes and the matrices between them are mostly
zeros, so every function here reads only stored entries and never tests a
zero.  ``sparse`` and ``dense`` are the only converters to and from
length-n lists.

Values are exact rationals, never floats or bools: a value is made an
``int`` when it is integral and a ``Fraction`` otherwise (``exact``; ``rref``
does the same).  Arithmetic needs no help: int with int stays int, a
Fraction operand gives a Fraction, and the two compare and hash equal by
value, so a mix stays exact and integer models pay no ``Fraction``
arithmetic.  No ``/`` may divide two ints.

One sparse integer echelon underlies rank and the reduced echelon form:
each row becomes a ``{column: int}`` dict with its denominators and content
cleared, and is reduced at its leading column against the primitive pivot
rows found so far, until it vanishes or leads a new pivot column.  Dividing
out each row's content keeps the integers small without modular
arithmetic.  Everything downstream (rank, kernels, reduced echelon forms,
solving) is deterministic: pivots are always the first usable column, and
free variables are ordered by column index.  The reduced row echelon form
of a row space is unique, and rank, kernel bases and solutions (free
variables zero) are functions of it, so neither the storage nor the order
of elimination can move a single value.  An empty row costs nothing, and a
single-entry row whose column holds no pivot yet enters as the unit row.

A subspace is a ``Span``, which holds those rows: the one reader of the
rows-and-pivots format, for equality, membership, residuals and
coordinates.  A kernel needs one elimination, not two: ``kernel_span``
takes each pivot at its row's largest column instead, so a pivot variable
is a combination of free variables to its left only.  The kernel vector of
free column j is then 1 at j and nonzero elsewhere only at pivot columns
above j, so the free-column vectors, ascending, already are the kernel's
reduced echelon rows, and a ``Span`` keeps reduced rows as given.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction
Vector = dict[int, Rational]
Matrix = list[Vector]


def exact(value) -> Rational:
    """A rational as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def sparse(values) -> Vector:
    """The sparse vector of a sequence of rationals."""
    return {j: exact(v) for j, v in enumerate(values) if v}


def dense(vec: Vector, n: int) -> list[Fraction]:
    """The length-n ``Fraction`` list of a sparse vector."""
    out = [Fraction(0)] * n
    for j, v in vec.items():
        out[j] = Fraction(v)
    return out


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


def _echelon(mat: Matrix, lead=min) -> dict[int, dict[int, int]]:
    """Primitive integer rows spanning mat's row space, keyed by their
    distinct pivot columns, each the ``lead`` (min or max) column of its
    row; with ``min`` these are the pivot columns of rref(mat)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in mat:
        if len(row) == 1:
            (c,) = row
            if c not in pivots:
                pivots[c] = {c: 1}
                continue
        elif not row:
            continue
        if all(type(f) is int for f in row.values()):
            ints = _primitive(row)      # no row is ever changed in place
        else:
            mult = lcm(*(f.denominator for f in row.values()))
            ints = _primitive({j: f.numerator * (mult // f.denominator)
                               for j, f in row.items()})
        while ints:
            c = lead(ints)
            if c not in pivots:
                pivots[c] = ints
                break
            ints = _eliminate(ints, pivots[c], c)
    return pivots


def _back_substitute(ech: dict[int, dict[int, int]],
                     order) -> dict[int, Vector]:
    """The pivot rows of ``ech`` eliminated at the other pivot columns and
    scaled to 1 at their own, taken in ``order``: a row's other pivots must
    come before it."""
    out = {}
    for c in order:
        row = ech[c]
        for c2 in [j for j in row if j != c and j in ech]:
            row = _eliminate(row, ech[c2], c2)
        ech[c] = row
        lead = row[c]
        out[c] = {j: v // lead if v % lead == 0 else Fraction(v, lead)
                  for j, v in row.items()}
    return out


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot columns).

    Zero rows are dropped, so R has exactly rank(mat) rows.
    """
    ech = _echelon(mat)
    pivots = sorted(ech)
    if all(len(row) == 1 for row in ech.values()):
        return [{c: 1} for c in pivots], pivots
    rows = _back_substitute(ech, reversed(pivots))
    return [rows[c] for c in pivots], pivots


def rank(mat: Matrix) -> int:
    return len(_echelon(mat))


def kernel_span(mat: Matrix, ncols: int) -> Span:
    """{x : mat @ x = 0} as a ``Span``, from one elimination.

    Each pivot is its row's largest column, so after back-substitution
    pivot row c reads x_c = -sum (r_j / r_c) x_j over free columns j < c.
    The kernel vector of free column j is 1 at j and nonzero elsewhere only
    at pivot columns above j: no vector is nonzero at another's free
    column, so these vectors, ascending, are the kernel's reduced echelon
    rows, which the ``Span`` keeps without a second elimination.
    """
    ech = _echelon(mat, max)
    basis = {j: {j: 1} for j in range(ncols) if j not in ech}
    for c, row in _back_substitute(ech, sorted(ech)).items():
        for j, v in row.items():
            if j != c:
                basis[j][c] = -v
    return Span(list(basis.values()))


def factor(mat: Matrix, ncols: int) -> tuple[list[int], Matrix]:
    """The reduced echelon form of [mat | I], kept for solving mat @ x = b
    for many b.  Row i is T_i [mat | I] for an invertible T; the rows with a
    pivot below ``ncols`` are rref(mat) and hold x at that pivot, the rest
    span the left null space.  Returns those pivots and T by columns."""
    rows, pivots = rref([{**row, ncols + i: 1} for i, row in enumerate(mat)])
    transform = [{j - ncols: v for j, v in row.items() if j >= ncols}
                 for row in rows]
    return pivots[:bisect_left(pivots, ncols)], transpose(transform, len(mat))


def solve_factored(fac: tuple[list[int], Matrix], rhs: Vector) -> Vector | None:
    """The solution of mat @ x = rhs with free variables zero, from
    ``factor(mat, ncols)``: x at pivot P_i is T_i rhs; None if T rhs is
    nonzero on a left-null row.  Keys come in pivot order."""
    pivots, columns = fac
    if max(rhs, default=-1) >= len(columns):
        return None
    t_rhs = combine(rhs, columns)
    if max(t_rhs, default=-1) >= len(pivots):
        return None
    return {pivots[i]: t_rhs[i] for i in sorted(t_rhs)}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for row in a:
        acc: Vector = {}
        for k, e in row.items():
            for j, x in b[k].items():
                acc[j] = acc[j] + e * x if j in acc else e * x
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = {}
    for i, row in enumerate(a):
        acc = 0
        for k, x in row.items():
            if k in v:
                acc += x * v[k]
        if acc:
            out[i] = acc
    return out


def combine(coeffs: Vector, rows: Matrix) -> Vector:
    """The vector sum of coeffs[i] * rows[i]."""
    out: Vector = {}
    for i, c in coeffs.items():
        for j, v in rows[i].items():
            out[j] = out[j] + c * v if j in out else c * v
    return {j: v for j, v in out.items() if v}


def transpose(mat: Matrix, ncols: int) -> Matrix:
    """The ncols rows of the transpose of mat."""
    out: Matrix = [{} for _ in range(ncols)]
    for i, row in enumerate(mat):
        for j, v in row.items():
            out[j][i] = v
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [combine({0: 1, 1: -1}, [ra, rb]) for ra, rb in zip(a, b)]


def identity(n: int) -> Matrix:
    return [{i: 1} for i in range(n)]


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def _reduced_pivots(rows: Matrix) -> list[int] | None:
    """The leading columns of rows that already are a reduced echelon form
    (ascending leading columns, each leading entry 1, and no other row
    nonzero at a leading column), else None."""
    pivots: list[int] = []
    for row in rows:
        c = min(row, default=-1)
        if c <= (pivots[-1] if pivots else -1) or row[c] != 1:
            return None
        pivots.append(c)
    leads = set(pivots)
    if sum(j in leads for row in rows for j in row) != len(rows):
        return None
    return pivots


class Span:
    """A subspace as its reduced echelon rows and their pivot columns.  The
    rows of a subspace are unique, so equal spans have equal rows, and a
    member's coordinates on the rows are its entries at the pivots.  Rows
    that already are a reduced echelon form are kept as given; any others
    are eliminated once."""

    __slots__ = ("rows", "pivots", "_row_at", "_index")

    def __init__(self, vectors: Matrix = ()):
        rows = list(vectors)
        pivots = _reduced_pivots(rows)
        if pivots is None:
            rows, pivots = rref(rows)
        self.rows, self.pivots = rows, pivots
        self._row_at = dict(zip(self.pivots, self.rows))    # pivot -> row
        self._index = {c: i for i, c in enumerate(self.pivots)}

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Span) and self.rows == other.rows

    def residual(self, vec: Vector) -> Vector:
        """vec reduced modulo the span: each row vanishes at the other rows'
        pivots, so a row's factor is vec's own entry at its pivot."""
        out = dict(vec)
        row_at = self._row_at
        for c, fac in vec.items():
            if c in row_at:
                for j, v in row_at[c].items():
                    w = out.get(j, 0) - fac * v
                    if w:
                        out[j] = w
                    else:
                        del out[j]
        return out

    def __contains__(self, vec: Vector) -> bool:
        return not self.residual(vec)

    def coords(self, vec: Vector) -> Vector:
        """vec's entries at the pivots, keyed by row, in row order."""
        at = self._index
        return dict(sorted((at[c], v) for c, v in vec.items() if c in at))

    def vector(self, coords: Vector) -> Vector:
        """The combination of the rows with these coordinates."""
        return combine(coords, self.rows)
