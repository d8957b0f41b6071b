"""Triple Massey products as formality obstructions.

For classes x, y, z with x y = 0 = y z in cohomology, pick bounding cochains
dU = a b and dV = b c (echelon solve, free variables zero) and form

    w = U c - (-1)^{|x|} a V.

The class of w modulo the indeterminacy x H + H z is the triple product; a
nonvanishing one obstructs formality.  Vanishing ones prove nothing, so a
scan reports "obstructed" or "no obstruction among basis triples" only.
"""

from __future__ import annotations

import itertools

from . import linalg
from .cohomology import CohomologyRing
from .errors import StructureError
from .record import Record


class MasseyTriple(Record):
    degrees: tuple[int, int, int]
    x: linalg.Vector
    y: linalg.Vector
    z: linalg.Vector
    bounding_xy: linalg.Vector        # cochain U with dU = rep(x) rep(y)
    bounding_yz: linalg.Vector        # cochain V with dV = rep(y) rep(z)
    value_cochain: linalg.Vector
    value_class: linalg.Vector        # in H^{|x|+|y|+|z|-1}
    indeterminacy: linalg.Span        # x H + H z, in class coordinates
    vanishes: bool

    @property
    def value_degree(self) -> int:
        return sum(self.degrees) - 1

    @property
    def indeterminacy_dim(self) -> int:
        return len(self.indeterminacy)


def triple_massey(ring: CohomologyRing, x: tuple, y: tuple,
                  z: tuple) -> MasseyTriple:
    """<x, y, z> for classes given as (degree, class coordinates)."""
    (px, xc), (py, yc), (pz, zc) = x, y, z
    cx = ring.complex
    a = ring.representative_of(px, xc)
    b = ring.representative_of(py, yc)
    c = ring.representative_of(pz, zc)
    ab = cx.wedge_coords(px, a, py, b)
    bc = cx.wedge_coords(py, b, pz, c)
    if ring.class_of(px + py, ab):
        raise StructureError("x y is nonzero in cohomology; <x,y,z> undefined")
    if ring.class_of(py + pz, bc):
        raise StructureError("y z is nonzero in cohomology; <x,y,z> undefined")
    u = cx.solve_d(px + py - 1, ab)
    v = cx.solve_d(py + pz - 1, bc)
    if u is None or v is None:
        raise StructureError("exact product has no primitive; corrupt complex")
    s = px + py + pz - 1
    uc = cx.wedge_coords(px + py - 1, u, pz, c)
    av = cx.wedge_coords(px, a, py + pz - 1, v)
    sign = -1 if px % 2 else 1
    w = linalg.combine({0: 1, 1: -sign}, [uc, av])
    value_class = ring.class_of(s, w)
    ind = _indeterminacy(ring, px, xc, pz, zc, s)
    return MasseyTriple((px, py, pz), dict(xc), dict(yc), dict(zc), u, v, w,
                        value_class, ind, value_class in ind)


def _indeterminacy(ring: CohomologyRing, px, xc, pz, zc, s):
    """Subspace x H^{s-px} + H^{s-pz} z of H^s, by bilinearity from the
    cached basis cup products: x e_t = sum_a x_a e_a e_t, e_t z likewise."""
    qx, qz = s - px, s - pz
    span = [linalg.combine(xc, {a: ring.cup_basis(px, a, qx, t) for a in xc})
            for t in range(ring.dim(qx))]
    span += [linalg.combine(zc, {a: ring.cup_basis(qz, t, pz, a) for a in zc})
             for t in range(ring.dim(qz))]
    return linalg.Span(span)


class MasseyScan(Record):
    """All triple products among degree-1 basis classes with vanishing
    pairwise products."""
    triples: list[tuple[tuple[int, int, int], MasseyTriple]]
    # read on the triples of the H^1 basis only, so off co-Kahler models
    # it can depend on that basis
    status: str

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"


def degree_one_massey_scan(ring: CohomologyRing) -> MasseyScan:
    """Tries only the triples of the ring's H^1 basis classes, so the status
    can depend on the basis: nil5 and rxkt5 change it in a rational basis."""
    n1 = ring.dim(1)
    results = []
    obstructed = False
    for i, j, k in itertools.product(range(n1), repeat=3):
        if ring.cup_basis(1, i, 1, j) or ring.cup_basis(1, j, 1, k):
            continue
        unit = lambda t: (1, {t: 1})
        triple = triple_massey(ring, unit(i), unit(j), unit(k))
        results.append(((i, j, k), triple))
        obstructed |= not triple.vanishes
    return MasseyScan(results, "obstructed" if obstructed
                      else "no obstruction among basis triples")
