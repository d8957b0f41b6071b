"""Omega_eta and Omega_1 of a model, computed apart from the verifier.

Dense iota_xi and L_xi = d iota_xi + iota_xi d on the monomial basis of
each Lambda^p are built from the model text with sympy over QQ.  The
differential comes from ``perfbench/oracle.py``, read as
``tests/test_report_bytes.py`` reads ``perfbench/models.py``; ``[xi]`` is
parsed here.  Omega_eta is ker L_xi and Omega_1 is ker L_xi cap ker iota_xi,
each degree a nullspace; their Betti numbers come from d restricted to
them.  Nothing is imported from ``cokahler``.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def perfbench_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def parse_xi(text: str, dim: int) -> list[Fraction] | None:
    """The components of the ``[xi]`` line, ``X<i>`` or dim numbers."""
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]").strip()
        elif line and section == "xi":
            if line.startswith("X"):
                return [Fraction(int(i == int(line[1:]) - 1))
                        for i in range(dim)]
            return [Fraction(v) for v in line.split()]
    return None


def _matrix(rows, shape) -> DomainMatrix:
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                         for row in rows], shape, QQ)


def _kernel(mat: DomainMatrix) -> DomainMatrix:
    """A basis of mat's kernel, as the columns of the result."""
    rows, cols = mat.shape
    if not cols or not rows:
        return DomainMatrix.eye(cols, QQ)
    return mat.nullspace().transpose()


def _rank(mat: DomainMatrix) -> int:
    return mat.rank() if 0 not in mat.shape else 0


class Oracle:
    """d and iota_xi of one model text on the monomial basis of Lambda."""

    def __init__(self, text: str):
        model = perfbench_oracle().parse(text)
        self.dim = dim = model["dimension"]
        self.xi = parse_xi(text, dim)
        self._d = [_matrix(m, (comb(dim, p + 1), comb(dim, p))) for p, m
                   in enumerate(perfbench_oracle().ce_matrices(
                       dim, model["brackets"]))]

    def size(self, p: int) -> int:
        return comb(self.dim, p) if 0 <= p <= self.dim else 0

    def d(self, p: int) -> DomainMatrix:
        """d: Lambda^p -> Lambda^{p+1}."""
        if 0 <= p < self.dim:
            return self._d[p]
        return DomainMatrix.zeros((self.size(p + 1), self.size(p)), QQ)

    def iota(self, p: int) -> DomainMatrix:
        """iota_xi: Lambda^p -> Lambda^{p-1}, e^I -> sum_t (-1)^t xi^{i_t}
        e^{I - i_t}."""
        rows = [[Fraction(0)] * self.size(p) for _ in range(self.size(p - 1))]
        if 0 < p <= self.dim:
            target = {key: r for r, key
                      in enumerate(combinations(range(self.dim), p - 1))}
            for col, key in enumerate(combinations(range(self.dim), p)):
                for t, i in enumerate(key):
                    rows[target[key[:t] + key[t + 1:]]][col] += \
                        (-1) ** t * self.xi[i]
        return _matrix(rows, (self.size(p - 1), self.size(p)))

    def lie(self, p: int) -> DomainMatrix:
        """L_xi = d iota_xi + iota_xi d on Lambda^p."""
        return self.d(p - 1) * self.iota(p) + self.iota(p + 1) * self.d(p)

    def omega_eta(self, p: int) -> DomainMatrix:
        return _kernel(self.lie(p))

    def omega1(self, p: int) -> DomainMatrix:
        return _kernel(self.lie(p).vstack(self.iota(p)))

    def betti(self, basis) -> list[int]:
        """Betti numbers of the subcomplex with basis(p) in degree p."""
        spaces = [basis(p) for p in range(self.dim + 1)]
        image = [_rank(self.d(p) * b) for p, b in enumerate(spaces)]
        return [b.shape[1] - image[p] - (image[p - 1] if p else 0)
                for p, b in enumerate(spaces)]

    def inclusion_ranks(self, basis) -> list[int]:
        """Rank of H^p(sub) -> H^p(Lambda) for the subcomplex ``basis``."""
        ranks = []
        for p in range(self.dim + 1):
            b = basis(p)
            cocycles = b * _kernel(self.d(p) * b)
            bounds = self.d(p - 1)
            ranks.append(_rank(cocycles.hstack(bounds)) - _rank(bounds))
        return ranks
