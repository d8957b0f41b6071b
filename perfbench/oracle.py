"""Answers computed apart from the verifier, to check its outputs against.

The model text is parsed here again (only the header, the brackets and the
automorphism), the Chevalley-Eilenberg differential is built from the
structure constants, and ranks come from sympy over QQ.  Nothing is
imported from ``cokahler``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from sympy import Matrix
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix


def parse(text: str) -> dict:
    """dimension, brackets {(i, j): {k: c}} (0-based, i < j) and the
    automorphism matrix (or None) of a model file."""
    dim = None
    section = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    auto_rows: list[list[Fraction]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        if section is None:
            key, _, value = line.partition(":")
            if key.strip() == "dimension":
                dim = int(value)
        elif section == "brackets":
            i, j, k, c = line.split()
            slot = brackets.setdefault((int(i) - 1, int(j) - 1), {})
            slot[int(k) - 1] = slot.get(int(k) - 1, 0) + Fraction(c)
        elif section == "automorphism" and not line.startswith("order"):
            auto_rows.append([Fraction(v) for v in line.split()])
    return {"dimension": dim, "brackets": brackets,
            "automorphism": auto_rows or None}


def _d_one_forms(dim: int, brackets) -> list[dict[tuple, Fraction]]:
    """d e^k = -sum_{i<j} c_ij^k e^i ^ e^j, as {(i, j): coeff}."""
    out: list[dict[tuple, Fraction]] = [{} for _ in range(dim)]
    for (i, j), images in brackets.items():
        for k, c in images.items():
            a, b, sign = (i, j, 1) if i < j else (j, i, -1)
            if a == b:
                continue
            out[k][(a, b)] = out[k].get((a, b), 0) - sign * c
    return out


def _sort_sign(indices: list[int]):
    """Sorted tuple and permutation sign, or (None, 0) on a repeat."""
    if len(set(indices)) < len(indices):
        return None, 0
    sign = 1
    idx = list(indices)
    for a in range(len(idx)):
        for b in range(len(idx) - 1 - a):
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    return tuple(idx), sign


def ce_matrices(dim: int, brackets) -> list[list[list[Fraction]]]:
    """Matrix of d: Lambda^p -> Lambda^{p+1} for p = 0..dim-1."""
    d1 = _d_one_forms(dim, brackets)
    mats = []
    for p in range(dim):
        src = list(combinations(range(dim), p))
        tgt = {key: r for r, key in enumerate(combinations(range(dim), p + 1))}
        mat = [[Fraction(0)] * len(src) for _ in tgt]
        for col, key in enumerate(src):
            for t, k in enumerate(key):
                for pair, c in d1[k].items():
                    new = list(key[:t]) + list(pair) + list(key[t + 1:])
                    sorted_key, sign = _sort_sign(new)
                    if sign:
                        mat[tgt[sorted_key]][col] += (-1) ** t * sign * c
        mats.append(mat)
    return mats


def rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    return DomainMatrix.from_Matrix(Matrix(mat)).convert_to(QQ).rank()


def betti(text: str) -> tuple[int, ...]:
    """Betti numbers of the CE complex by exact ranks; checks d^2 = 0."""
    model = parse(text)
    dim = model["dimension"]
    mats = ce_matrices(dim, model["brackets"])
    for p in range(dim - 1):
        if any(Matrix(mats[p + 1]) * Matrix(mats[p])):
            raise ValueError(f"oracle differential has d^2 != 0 in degree {p}")
    ranks = [rank(m) for m in mats] + [0]
    return tuple(comb(dim, p) - ranks[p] - (ranks[p - 1] if p else 0)
                 for p in range(dim + 1))


def unimodular(text: str) -> bool:
    """tr ad(X_i) = sum_j c_ij^j vanishes for every i."""
    model = parse(text)
    dim = model["dimension"]
    trace = [Fraction(0)] * dim
    for (i, j), images in model["brackets"].items():
        trace[i] += images.get(j, 0)
        trace[j] -= images.get(i, 0)
    return not any(trace)


def torus_betti(n: int) -> tuple[int, ...]:
    return tuple(comb(n, p) for p in range(n + 1))


def abelian_mapping_torus_betti(text: str) -> tuple[int, ...]:
    """Betti numbers of the mapping torus of a torus automorphism phi.

    For an abelian fiber H^p = Lambda^p, so the fixed part in degree p is
    the kernel of Lambda^p(phi) - 1; the circle doubles it into p and p+1.
    """
    model = parse(text)
    if model["brackets"]:
        raise ValueError("closed form needs an abelian fiber")
    phi = Matrix(model["automorphism"])
    n = phi.shape[0]
    fixed = []
    for p in range(n + 1):
        keys = list(combinations(range(n), p))
        compound = Matrix(len(keys), len(keys),
                          lambda r, c: phi.extract(list(keys[r]),
                                                   list(keys[c])).det()
                          if p else 1)
        fixed.append(len(keys) - rank((compound - Matrix.eye(len(keys)))
                                      .tolist()))
    return tuple((fixed[p] if p <= n else 0) + (fixed[p - 1] if p else 0)
                 for p in range(n + 2))
