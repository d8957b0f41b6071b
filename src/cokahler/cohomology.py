"""Cohomology of finite cochain complexes over the rationals.

Works uniformly over anything with the complex interface (``dim``,
``d_matrix``, ``element``, ``wedge_coords``, ``top``): full DGAs and
subcomplexes alike.  Representatives are canonical: kernel vectors are
reduced modulo the image and re-echelonized, so the same subspace always
yields the same representative cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import StructureError


@dataclass
class DegreeSlice:
    """One degree of a cohomology ring."""
    degree: int
    dimension: int
    representatives: linalg.Matrix          # rows, in complex coordinates
    image_rows: linalg.Matrix               # rref basis of im(d)
    image_pivots: list[int]
    kernel_dim: int


class CohomologyRing:
    """Per-degree classes with representative cocycles and cup products."""

    def __init__(self, cx):
        self.complex = cx
        self.slices: list[DegreeSlice] = []
        for p in range(cx.top + 1):
            n = cx.dim(p)
            if n == 0:
                self.slices.append(DegreeSlice(p, 0, [], [], [], 0))
                continue
            kernel = linalg.kernel_basis(cx.d_matrix(p), n)
            img_vectors = []
            if p > 0:
                prev = cx.d_matrix(p - 1)
                ncols = len(prev[0]) if prev else 0
                img_vectors = [[prev[i][j] for i in range(n)] for j in range(ncols)]
            img_rows, img_pivots = linalg.rref(img_vectors) if img_vectors else ([], [])
            reduced = [linalg.residual(v, img_rows, img_pivots) for v in kernel]
            reps, _ = linalg.rref([r for r in reduced if any(r)]) if reduced else ([], [])
            dim_h = len(reps)
            if dim_h != len(kernel) - len(img_rows):
                raise StructureError(
                    f"rank-nullity mismatch in degree {p}: "
                    f"{dim_h} != {len(kernel)} - {len(img_rows)}")
            self.slices.append(
                DegreeSlice(p, dim_h, reps, img_rows, img_pivots, len(kernel)))
        self._solve_cache: dict[int, tuple] = {}
        self._cup_cache: dict[tuple, list[Fraction]] = {}

    @property
    def top(self) -> int:
        return self.complex.top

    def dim(self, p: int) -> int:
        if p < 0 or p > self.top:
            return 0
        return self.slices[p].dimension

    def betti(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.slices)

    def representatives(self, p: int) -> linalg.Matrix:
        if p < 0 or p > self.top:
            return []
        return self.slices[p].representatives

    def representative_of(self, p: int, class_coords) -> list[Fraction]:
        """Cocycle coordinates of a class given by coefficients on the
        representative basis."""
        n = self.complex.dim(p)
        out = [Fraction(0)] * n
        for c, row in zip(class_coords, self.representatives(p)):
            if c:
                out = [out[j] + c * row[j] for j in range(n)]
        return out

    def is_exact(self, p: int, cocycle_coords) -> bool:
        s = self.slices[p]
        return linalg.in_row_space(list(cocycle_coords), s.image_rows, s.image_pivots)

    def class_of(self, p: int, cocycle_coords) -> list[Fraction]:
        """Coordinates of [v] on the representative basis of H^p.

        Deterministic: solves v = sum a_i rep_i + d w with free variables 0.
        Raises if v is not closed.
        """
        vec = list(cocycle_coords)
        if p < 0 or p > self.top:
            if any(vec):
                raise StructureError(f"no cohomology in degree {p}")
            return []
        dv = linalg.mat_vec(self.complex.d_matrix(p), vec)
        if any(dv):
            raise StructureError(f"vector of degree {p} is not closed")
        s = self.slices[p]
        if p not in self._solve_cache:
            n = self.complex.dim(p)
            prev = self.complex.d_matrix(p - 1) if p > 0 else []
            img_cols = len(prev[0]) if prev else 0
            cols = len(s.representatives) + img_cols
            mat = [[Fraction(0)] * cols for _ in range(n)]
            for j, rep in enumerate(s.representatives):
                for i in range(n):
                    mat[i][j] = rep[i]
            for j in range(img_cols):
                for i in range(n):
                    mat[i][len(s.representatives) + j] = prev[i][j]
            self._solve_cache[p] = mat
        mat = self._solve_cache[p]
        if not mat or not mat[0]:
            if any(vec):
                raise StructureError(f"nonzero vector in a zero H^{p}")
            return []
        sol = linalg.solve(mat, vec)
        if sol is None:
            raise StructureError(f"vector is not in Z^{p}")
        return sol[:s.dimension]

    def class_of_element(self, elem) -> list[Fraction]:
        p = elem.degree
        return self.class_of(p, self.complex.coords(p, elem))

    def cup(self, p: int, x_class, q: int, y_class) -> list[Fraction]:
        """Cup product of two classes, as a class in degree p + q."""
        xv = self.representative_of(p, x_class)
        yv = self.representative_of(q, y_class)
        prod = self.complex.wedge_coords(p, xv, q, yv)
        return self.class_of(p + q, prod)

    def cup_basis(self, p: int, i: int, q: int, j: int) -> list[Fraction]:
        key = (p, i, q, j)
        if key not in self._cup_cache:
            x = linalg.unit_vector(self.dim(p), i)
            y = linalg.unit_vector(self.dim(q), j)
            self._cup_cache[key] = self.cup(p, x, q, y)
        return self._cup_cache[key]


@dataclass
class InducedMap:
    """Matrix of a chain map on H^p, with rank bookkeeping."""
    degree: int
    matrix: linalg.Matrix          # dim H^p(target) rows x dim H^p(source) cols
    source_dim: int
    target_dim: int
    rank: int
    kernel_classes: linalg.Matrix  # source-class coordinates spanning the kernel

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_dim

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective


def inclusion_induced_map(sub, p: int) -> InducedMap:
    """Map H^p(sub) -> H^p(parent) induced by a subcomplex inclusion."""
    sub_ring = sub.cohomology()
    parent_ring = sub.parent.cohomology()
    cols = []
    for rep in sub_ring.representatives(p):
        parent_vec = sub.parent_coords(p, rep)
        cols.append(parent_ring.class_of(p, parent_vec))
    return _map_from_columns(p, cols, sub_ring.dim(p), parent_ring.dim(p))


def _map_from_columns(p: int, cols: linalg.Matrix, source_dim: int,
                      target_dim: int) -> InducedMap:
    matrix = [[col[i] for col in cols] for i in range(target_dim)]
    rk = linalg.rank(matrix) if matrix and cols else 0
    kernel = linalg.kernel_basis(matrix, source_dim) if source_dim else []
    return InducedMap(p, matrix, source_dim, target_dim, rk, kernel)


def kunneth_convolution(betti_a, betti_b) -> tuple[int, ...]:
    """Betti vector of a tensor product from the factors' Betti vectors."""
    out = [0] * (len(betti_a) + len(betti_b) - 1)
    for i, a in enumerate(betti_a):
        for j, b in enumerate(betti_b):
            out[i + j] += a * b
    return tuple(out)
