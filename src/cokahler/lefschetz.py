"""Lefschetz maps, cohomology splitting, and mapping-torus models.

On a (2n+1)-dimensional model the degree-p Lefschetz map is

    alpha -> omega^{n-p+1} ^ iota_xi(alpha) + omega^{n-p} ^ eta ^ alpha.

It only sends closed forms to closed forms after restricting to the
L_xi-invariant forms, where it descends to cohomology; on co-Kahler models
the induced map in degrees 0..n must be an isomorphism onto the
complementary degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cdga import DGA, AlgebraMap, Subcomplex, embed_element, free_line_dga, \
    invariant_subalgebra, tensor_product
from .cohomology import InducedMap, _map_from_columns
from .errors import StructureError
from .exterior import Element
from .eta import omega_splitting, split_form
from .geometry import LieModel, classify, omega_element


def _contact_rank(m: LieModel) -> int:
    if m.dimension % 2 == 0:
        raise StructureError(
            f"model {m.name!r} has even dimension {m.dimension}; "
            "the Lefschetz calculus needs dimension 2n+1")
    return (m.dimension - 1) // 2


def _omega_power(omega: Element, k: int) -> Element:
    out = omega.algebra.unit()
    for _ in range(k):
        out = out.wedge(omega)
    return out


def lefschetz_map(m: LieModel, alpha: Element) -> Element:
    """Apply the Lefschetz map to alpha in Omega^p_eta, 0 <= p <= n.

    Inputs outside the invariant forms are refused: there the map does not
    send closed forms to closed forms and cannot descend to cohomology.
    """
    n = _contact_rank(m)
    p = alpha.degree
    if not 0 <= p <= n:
        raise StructureError(f"Lefschetz map needs 0 <= degree <= {n}, got {p}")
    if not m.lie_xi().apply(alpha).is_zero():
        raise StructureError(
            "alpha is not L_xi-invariant: on such forms the Lefschetz map "
            "does not descend to cohomology; pass an element of Omega_eta")
    omega = omega_element(m)
    eta = m.eta_element()
    out = _omega_power(omega, n - p + 1).wedge(m.contract(m.xi, alpha)) \
        + _omega_power(omega, n - p).wedge(eta).wedge(alpha)
    if not m.lie_xi().apply(out).is_zero():
        raise StructureError("Lefschetz image left the invariant forms")
    if m.ce().d.apply(alpha).is_zero() and not m.ce().d.apply(out).is_zero():
        raise StructureError("Lefschetz image of a closed form is not closed")
    return out


@dataclass
class LefschetzDegree(InducedMap):
    """The induced map H^p_eta -> H^{2n+1-p}_eta."""
    kernel_witnesses: list[str]
    component_split_ok: bool


@dataclass
class LefschetzReport:
    n: int
    hypothesis_cokahler: bool
    degrees: list[LefschetzDegree]
    # omega^n ^ eta represents a nonzero top class; None when not computed
    top_class_nonzero: bool | None
    # set when the map does not descend to cohomology and nothing was computed
    note: str | None

    @property
    def all_iso(self) -> bool:
        return all(d.isomorphism for d in self.degrees)

    @property
    def ok(self) -> bool:
        """Binding only under the co-Kahler hypothesis."""
        return (self.all_iso and self.top_class_nonzero) \
            if self.hypothesis_cokahler else True


def verify_lefschetz_iso(m: LieModel) -> LefschetzReport:
    """Induced Lefschetz matrices on the invariant cohomology for p <= n,
    with the component bookkeeping of the splitting.

    Off cosymplectic models the map does not descend to cohomology; the
    report then carries a note and no degrees."""
    n = _contact_rank(m)
    verdict = classify(m)
    if not verdict.cosymplectic:
        return LefschetzReport(
            n, verdict.coKahler, [], None,
            "model is not cosymplectic: the Lefschetz map does not descend "
            "to cohomology; no ranks computed")
    split = omega_splitting(m)
    sub = split.omega_eta
    ring = sub.cohomology()
    degrees = []
    for p in range(n + 1):
        q = 2 * n + 1 - p
        spans = (_class_span(m, split, q, with_eta=True),
                 _class_span(m, split, q, with_eta=False))
        cols = []
        comp_ok = True
        for rep in ring.representatives(p):
            elem = sub.element(p, rep)
            cols.append(_class(m, sub, q, lefschetz_map(m, elem)))
            comp_ok &= _component_split_ok(m, split, spans, elem, q)
        ind = _map_from_columns(p, cols, ring.dim(p), ring.dim(q))
        witnesses = [repr(sub.element(p, ring.representative_of(p, kv)))
                     for kv in ind.kernel_classes]
        degrees.append(LefschetzDegree(**vars(ind), kernel_witnesses=witnesses,
                                       component_split_ok=comp_ok))
    top = _omega_power(omega_element(m), n).wedge(m.eta_element())
    top_nonzero = any(_class(m, sub, 2 * n + 1, top))
    return LefschetzReport(n, verdict.coKahler, degrees, top_nonzero, None)


def _class(m: LieModel, sub: Subcomplex, q: int, form: Element) -> list:
    """Coordinates of the class of a closed form of Omega_eta in H^q_eta."""
    return sub.cohomology().class_of(q, sub.coords(q, m.ce().coords(q, form)))


def _h1_forms(m: LieModel, split, q: int, with_eta: bool) -> list[Element]:
    """The representatives of H^q_1, or the eta-multiples of those of
    H^{q-1}_1, as forms of degree q."""
    p = q - 1 if with_eta else q
    forms = [split.omega1.element(p, rep)
             for rep in split.omega1.cohomology().representatives(p)]
    return [m.eta_element().wedge(f) for f in forms] if with_eta else forms


def _class_span(m: LieModel, split, q: int, with_eta: bool):
    """Row-reduced span, in H^q_eta, of [eta] ^ H^{q-1}_1 or of H^q_1."""
    rows = [_class(m, split.omega_eta, q, f)
            for f in _h1_forms(m, split, q, with_eta)]
    return linalg.rref(rows) if rows else ([], [])


def _component_split_ok(m, split, spans, elem, q) -> bool:
    """The two split components land where the splitting says they must:
    L(alpha_1) in [eta] ^ H_1 and L(alpha_2) in H_1.  ``spans`` holds the
    row-reduced class spans of [eta] ^ H_1 and of H_1 in degree q."""
    pair = split_form(m, elem)
    ok = True
    for part, (rows, pivots) in zip((pair.alpha1, pair.alpha2), spans):
        if not part.is_zero():
            image = _class(m, split.omega_eta, q, lefschetz_map(m, part))
            ok &= linalg.in_row_space(image, rows, pivots)
    return ok


@dataclass
class SplittingReport:
    """dim H^p_eta = dim H^p_1 + dim H^{p-1}_1, via the explicit map
    (x, y) -> x + [eta] ^ y."""
    dims_eta: tuple[int, ...]
    dims_basic: tuple[int, ...]
    per_degree_ok: list[bool]
    ok: bool


def splitting_check(m: LieModel) -> SplittingReport:
    split = omega_splitting(m)
    ring = split.omega_eta.cohomology()
    ring1 = split.omega1.cohomology()
    per_degree = []
    for p in range(m.ce().top + 1):
        want = ring1.dim(p) + ring1.dim(p - 1)
        forms = _h1_forms(m, split, p, with_eta=False) + \
            _h1_forms(m, split, p, with_eta=True)
        cols = [_class(m, split.omega_eta, p, f) for f in forms]
        ind = _map_from_columns(p, cols, want, ring.dim(p))
        per_degree.append(want == ring.dim(p) and ind.rank == want)
    return SplittingReport(ring.betti(), ring1.betti(), per_degree,
                           all(per_degree))


@dataclass
class MappingTorus:
    """Mapping-torus model: the phi-invariant forms of K tensored with a
    circle generator, realized as a subcomplex of K (x) line."""
    total: DGA
    invariant: Subcomplex
    fiber_fixed: Subcomplex
    betti: tuple[int, ...]
    fiber_fixed_betti: tuple[int, ...]
    order: int
    circle_generator: str


def mapping_torus_model(k_dga: DGA, phi: AlgebraMap, order: int,
                        circle_name: str | None = None) -> MappingTorus:
    """Model of the mapping torus of a finite-order automorphism."""
    used = {g.name for g in k_dga.algebra.generators}
    name = circle_name
    if name is None:
        name = next(c for c in ("t", "s", "u", "z") if c not in used)
    elif name in used:
        raise StructureError(f"circle generator name {name!r} collides")
    fixed_k = invariant_subalgebra(k_dga, phi, order)
    total = tensor_product(k_dga, free_line_dga(name))
    images = {}
    for i, gen in enumerate(k_dga.algebra.generators):
        images[gen.name] = embed_element(phi.images[i], total.algebra)
    images[name] = total.algebra.gen(name)
    phi_hat = AlgebraMap(total.algebra, images, name=f"{phi.name or 'phi'}^")
    invariant = invariant_subalgebra(total, phi_hat, order)
    return MappingTorus(total, invariant, fixed_k, invariant.betti(),
                        fixed_k.betti(), order, name)


def model_automorphism(m: LieModel) -> tuple[AlgebraMap, int]:
    """The automorphism block of a model file as a degree-1 algebra map."""
    if m.automorphism is None:
        raise StructureError(f"model {m.name!r} carries no automorphism block")
    mat, order = m.automorphism
    alg = m.algebra()
    images = {}
    for j in range(m.dimension):
        img = alg.zero(1)
        for i in range(m.dimension):
            if mat[i][j]:
                img = img + alg.gen(i).scale(mat[i][j])
        images[alg.generators[j].name] = img
    return AlgebraMap(alg, images, name="phi"), order
