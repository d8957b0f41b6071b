"""A rational change of basis on model files, and reports up to it.

The new basis is X'_a = sum_i P[i][a] X_i, the columns of P, with the dual
coframe.  The brackets become P^-1 c(P ., P .), the metric P^T g P, xi
P^-1 xi, eta eta P and J P^-1 J P.  An automorphism block holds phi on the
coframe (its column i is the image of e^i), the transpose of the Lie
algebra map A; A becomes P^-1 A P, so the block becomes P^T M P^-T.

A model and its conjugate have equal reports up to what is bound to a
basis: witnesses, and the degree-one Massey scan, which tries the triples
of a basis of H^1 (``basis_free``).

Matrices are lists of rows of ``Fraction``s; the inverse is sympy's, so no
``cokahler`` arithmetic enters the change of basis.
"""

from fractions import Fraction

import sympy
from hypothesis import strategies as st

from cokahler.modelfile import ModelFile, loads, serialize

MASSEY_NOTE = "nonvanishing triple Massey product"


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    inv = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         for x in row] for row in a]).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)]
            for i in range(inv.rows)]


def conjugated(mf: ModelFile, P) -> ModelFile:
    """``mf`` in the basis given by the columns of the invertible ``P``,
    written out and read back, so the conjugate passes the parser's checks."""
    n, Pi = mf.dimension, inverse(P)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in mf.brackets:
        c[i - 1][j - 1][k - 1] += v
        c[j - 1][i - 1][k - 1] -= v
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            # [X'_a, X'_b] = sum_ij P_ia P_jb [X_i, X_j], in X' coordinates
            image = [sum((P[i][a] * P[j][b] * c[i][j][k] for i in range(n)
                          for j in range(n) if P[i][a] and P[j][b]),
                         Fraction(0)) for k in range(n)]
            brackets += [(a + 1, b + 1, k + 1, x)
                         for k, x in enumerate(mat_vec(Pi, image)) if x]
    g = identity(n) if mf.metric is None else mf.metric
    automorphism = None
    if mf.automorphism is not None:
        block, order = mf.automorphism
        automorphism = (mat_mul(mat_mul(transpose(P), block),
                                transpose(Pi)), order)
    out = ModelFile(
        name=mf.name, dimension=n, brackets=brackets,
        metric=mat_mul(mat_mul(transpose(P), g), P),
        xi=mf.xi and mat_vec(Pi, mf.xi),
        eta=mf.eta and mat_vec(transpose(P), mf.eta),
        J=mf.J and mat_mul(mat_mul(Pi, mf.J), P), automorphism=automorphism)
    return loads(serialize(out))


def item15_basis(n: int) -> list[list[Fraction]]:
    """P = I + 2 E_12 - E_31 + 1/3 E_2n + E_n3: xi = X1 goes to a vector off
    the basis, and eta = e1 to e1 + 2 e2."""
    P = identity(n)
    P[0][1], P[2][0], P[1][n - 1], P[n - 1][2] = (
        Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(1))
    return P


def swap_basis(n: int, i: int, j: int) -> list[list[Fraction]]:
    """The permutation P exchanging X_i and X_j (1-based)."""
    P = identity(n)
    P[i - 1], P[j - 1] = P[j - 1], P[i - 1]
    return P


@st.composite
def bases(draw, n: int, unimodular: bool):
    """A seeded invertible P: the identity with row i sheared by c_i times
    row i + k_i (mod n), i = 0 .. n-1 in turn, c_i a nonzero small integer
    (unimodular) or rational with one row then scaled, so det P is not +-1
    (not unimodular).  Every draw, the simplest included, moves each row;
    n is at least 2."""
    P = identity(n)
    values = [Fraction(v) for v in (1, -1, 2, -2)] if unimodular else [
        Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(3),
        Fraction(-3, 2)]
    for i in range(n):
        c = draw(st.sampled_from(values))
        j = (i + draw(st.integers(1, n - 1))) % n
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    if not unimodular:
        i = draw(st.integers(0, n - 1))
        s = draw(st.sampled_from([Fraction(2), Fraction(1, 3),
                                  Fraction(-3, 2)]))
        P[i] = [s * x for x in P[i]]
    return P


def _without_witnesses(value):
    if isinstance(value, dict):
        return {k: _without_witnesses(v) for k, v in value.items()
                if "witness" not in k}
    if isinstance(value, list):
        return [_without_witnesses(v) for v in value]
    return value


def basis_free(report: dict) -> dict:
    """A report (``report._plain``) without what names a basis: each key
    that holds witnesses, and a note's witness dict; the degree-one Massey
    triples, labelled by a basis of H^1; and, where the report asserts no
    Massey verdict, the scan's status and note.  They say only what the
    basis triples show: on nil5 and rxkt5 the scan finds an obstruction in
    one basis and none in another."""
    verdict = any(r["check"] == "massey_formality_obstruction"
                  for r in report["asserted"])
    out = _without_witnesses(report)
    if "massey" in out:
        del out["massey"]["degree_one_triples"]
        if not verdict:
            del out["massey"]["status"]
    out["notes"] = [note.split(": {")[0] for note in out["notes"]
                    if verdict or not note.startswith(MASSEY_NOTE)]
    return out
