"""Cohomology of finite cochain complexes over the rationals.

Works uniformly over any ``cdga.CochainComplex`` (``dim``, ``d_columns``,
``element``, ``coords(p, elem)``, ``top``, ``cohomology_store``): full DGAs
and subcomplexes alike.  Cochains, representatives and classes are ``linalg``
sparse vectors (``{index: rational}``, no zero values) on the complex's
basis or on the representative basis of H^p.  d is the complex's, by
columns: those into degree p span the image, and those out of it test
closure; its rows (``d_matrix``) are made only to eliminate the kernel.
The complex owns the computed degrees and cup products; a
``CohomologyRing`` is a view that keeps its complex alive and shares them,
and no complex refers to a view.  A degree is computed on first use, from
the differentials into and out of it only, and holds the image of d and
the representative cocycles as ``linalg.Span``s.  Representatives are
canonical: kernel vectors are reduced modulo the image and re-echelonized,
so the same subspace always yields the same representative cocycles.
Every map on cohomology (an inclusion, a minimal model's comparison map,
the Lefschetz map) is built by ``induced_map`` from its columns' classes.
"""

from __future__ import annotations

from . import linalg
from .errors import StructureError
from .record import Record


class DegreeSlice(Record):
    """One degree of a cohomology ring (d is the complex's)."""
    representatives: linalg.Span    # cocycles, zero at im(d)'s pivots
    image: linalg.Span              # im(d)


class CohomologyRing:
    """A view of a complex's classes, representatives and cup products."""

    def __init__(self, cx):
        self.complex = cx
        self._slices, self._cup_cache = cx.cohomology_store

    def _slice(self, p: int) -> DegreeSlice:
        """H^p, computed on first use from the differentials into and out
        of degree p and checked against rank-nullity (zero off 0..top).
        When the image of d is zero the residual is the identity, so the
        kernel's reduced rows are the representatives."""
        if p in self._slices:
            return self._slices[p]
        cx = self.complex
        n = cx.dim(p)
        kernel = linalg.kernel_span(cx.d_matrix(p), n)
        prev = cx.d_columns(p - 1) if p > 0 and n else []
        image = linalg.Span(prev if any(prev) else [])
        reps = linalg.Span([r for r in map(image.residual, kernel.rows)
                            if r]) if image.rows else kernel
        if len(reps) != len(kernel) - len(image):
            raise StructureError(
                f"rank-nullity mismatch in degree {p}: "
                f"{len(reps)} != {len(kernel)} - {len(image)}")
        self._slices[p] = DegreeSlice(reps, image)
        return self._slices[p]

    @property
    def top(self) -> int:
        return self.complex.top

    def dim(self, p: int) -> int:
        return len(self._slice(p).representatives)

    def betti(self) -> tuple[int, ...]:
        return tuple(self.dim(p) for p in range(self.top + 1))

    def representatives(self, p: int) -> linalg.Matrix:
        return self._slice(p).representatives.rows

    def representative_of(self, p: int,
                          class_coords: linalg.Vector) -> linalg.Vector:
        """Cocycle coordinates of a class given by coefficients on the
        representative basis."""
        return self._slice(p).representatives.vector(class_coords)

    def class_of(self, p: int, cocycle_coords: linalg.Vector) -> linalg.Vector:
        """Coordinates of [v] on the representative basis of H^p.

        The representatives vanish on the image pivots and are in rref, so
        reducing v = sum a_i rep_i + d w modulo the image leaves sum a_i rep_i,
        whose coordinates on the representatives are the a_i.  Raises if v is
        not closed or the reduction is not that combination.  Like every
        ``linalg`` vector, v holds exact rationals (ints where integral) and
        no zeros; the returned a_i are read off unconverted.
        """
        vec = cocycle_coords
        if p < 0 or p > self.top:
            if vec:
                raise StructureError(f"no cohomology in degree {p}")
            return {}
        s = self._slice(p)
        if linalg.combine(vec, self.complex.d_columns(p)):
            raise StructureError(f"vector of degree {p} is not closed")
        rest = s.image.residual(vec)
        coeffs = s.representatives.coords(rest)
        if rest != s.representatives.vector(coeffs):
            raise StructureError(f"vector is not in Z^{p}")
        return coeffs

    def cup(self, p: int, x_class, q: int, y_class) -> linalg.Vector:
        """Cup product of two classes, as a class in degree p + q."""
        xv = self.representative_of(p, x_class)
        yv = self.representative_of(q, y_class)
        prod = self.complex.wedge_coords(p, xv, q, yv)
        return self.class_of(p + q, prod)

    def cup_basis(self, p: int, i: int, q: int, j: int) -> linalg.Vector:
        key = (p, i, q, j)
        if key not in self._cup_cache:
            self._cup_cache[key] = self.cup(p, {i: 1}, q, {j: 1})
        return self._cup_cache[key]


class InducedMap(Record):
    """Matrix of a chain map from H^p, with rank bookkeeping."""
    degree: int                    # p, the source degree
    matrix: linalg.Matrix          # dim H^q(target) rows x dim H^p(source) cols
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


def induced_map(source, p: int, target, q: int, push) -> InducedMap:
    """The map H^p(source) -> H^q(target) of a cochain map ``push``, which
    sends the coordinates of a degree-p cocycle of ``source`` to those of a
    degree-q cocycle of ``target``.  Column j is the class of the image of
    the j-th representative."""
    ring_s = source.cohomology()
    ring_t = target.cohomology()
    cols = [ring_t.class_of(q, push(rep)) for rep in ring_s.representatives(p)]
    source_dim, target_dim = ring_s.dim(p), ring_t.dim(q)
    matrix = linalg.transpose(cols, target_dim)
    kernel = linalg.kernel_span(matrix, source_dim).rows
    return InducedMap(p, matrix, source_dim, target_dim,
                      source_dim - len(kernel), kernel)


def kernel_witnesses(source, ind: InducedMap) -> list[str]:
    """The cocycles of ``source`` representing the kernel basis of an
    induced map, as element strings."""
    ring = source.cohomology()
    out = []
    for kv in ind.kernel_classes:
        rep = ring.representative_of(ind.degree, kv)
        out.append(repr(source.element(ind.degree, rep)))
    return out


def inclusion_induced_map(sub, p: int) -> InducedMap:
    """Map H^p(sub) -> H^p(parent) induced by a subcomplex inclusion; the
    identity, exactly, when ``sub`` is its own parent (a whole complex)."""
    if sub.parent is sub:
        n = sub.cohomology().dim(p)
        return InducedMap(p, linalg.identity(n), n, n, n, [])
    return induced_map(sub, p, sub.parent, p,
                       lambda rep: sub.parent_coords(p, rep))


def kunneth_convolution(betti_a, betti_b) -> tuple[int, ...]:
    """Betti vector of a tensor product from the factors' Betti vectors."""
    out = [0] * (len(betti_a) + len(betti_b) - 1)
    for i, a in enumerate(betti_a):
        for j, b in enumerate(betti_b):
            out[i + j] += a * b
    return tuple(out)
