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
from .cohomology import InducedMap, kernel_witnesses, map_from_classes
from .errors import StructureError
from .exterior import Element
from .eta import omega_splitting, split_form
from .geometry import LieModel, classify, omega_element, once_per_model


def _contact_rank(m: LieModel) -> int:
    if m.dimension % 2 == 0:
        raise StructureError(
            f"model {m.name!r} has even dimension {m.dimension}; "
            "the Lefschetz calculus needs dimension 2n+1")
    return (m.dimension - 1) // 2


@once_per_model
def _omega_powers(m: LieModel) -> list[Element]:
    """omega^0, ..., omega^{n+1}, each wedged once per model."""
    powers = [m.algebra().unit()]
    for _ in range(_contact_rank(m) + 1):
        powers.append(powers[-1].wedge(omega_element(m)))
    return powers


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
    powers = _omega_powers(m)
    out = powers[n - p + 1].wedge(m.iota_xi().apply(alpha)) \
        + powers[n - p].wedge(m.eta_element()).wedge(alpha)
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
    classes = split_classes(m)
    degrees = []
    for p in range(n + 1):
        q = 2 * n + 1 - p
        h1, eta_h1 = classes[q]
        spans = (linalg.Span(eta_h1), linalg.Span(h1))
        pairs = [_component_split_ok(m, split, spans, sub.element(p, rep), q)
                 for rep in ring.representatives(p)]
        ind = map_from_classes(p, [cls for cls, _ in pairs], ring.dim(p),
                               ring.dim(q))
        degrees.append(LefschetzDegree(
            **vars(ind), kernel_witnesses=kernel_witnesses(sub, ind),
            component_split_ok=all(ok for _, ok in pairs)))
    top = _omega_powers(m)[n].wedge(m.eta_element())
    top_nonzero = bool(_class(sub, 2 * n + 1, top))
    return LefschetzReport(n, verdict.coKahler, degrees, top_nonzero, None)


def _class(sub: Subcomplex, q: int, form: Element) -> linalg.Vector:
    """Coordinates of the class of a closed form of Omega_eta in H^q_eta."""
    return sub.cohomology().class_of(q, sub.coords(q, form))


@once_per_model
def split_classes(m: LieModel) -> list[tuple[linalg.Matrix, linalg.Matrix]]:
    """Entry q holds the classes in H^q_eta of the representatives of
    H^q_1, and of eta ^ the representatives of H^{q-1}_1."""
    split = omega_splitting(m)
    omega1 = split.omega1
    ring1 = omega1.cohomology()
    eta = m.eta_element()
    return [([_class(split.omega_eta, q, omega1.element(q, rep))
              for rep in ring1.representatives(q)],
             [_class(split.omega_eta, q, eta.wedge(omega1.element(q - 1, rep)))
              for rep in ring1.representatives(q - 1)])
            for q in range(m.ce().top + 1)]


def _component_split_ok(m, split, spans, elem, q) -> tuple[dict, bool]:
    """The class of L(elem) = L(alpha_1) + L(alpha_2), the sum of its
    nonzero split components' classes, each mapped and reduced once, and
    whether they land where the splitting says: L(alpha_1) in [eta] ^ H_1
    and L(alpha_2) in H_1, whose class spans in degree q are ``spans``."""
    pair = split_form(m, elem)
    parts, ok = [], True
    for part, span in zip((pair.alpha1, pair.alpha2), spans):
        if not part.is_zero():
            cls = _class(split.omega_eta, q, lefschetz_map(m, part))
            ok &= cls in span
            parts.append(cls)
    return linalg.combine(dict.fromkeys(range(len(parts)), 1), parts), ok


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
    for p, (h1, eta_h1) in enumerate(split_classes(m)):
        want = ring1.dim(p) + ring1.dim(p - 1)
        per_degree.append(want == ring.dim(p) and
                          linalg.rank(h1 + eta_h1) == want)
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


def mapping_torus_model(k_dga: DGA, phi: AlgebraMap,
                        order: int) -> MappingTorus:
    """Model of the mapping torus of a finite-order automorphism."""
    used = {g.name for g in k_dga.algebra.generators}
    name = next(c for c in ("t", "s", "u", "z") if c not in used)
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
    images = {gen.name: alg.element(1, column) for gen, column
              in zip(alg.generators, linalg.transpose(mat, m.dimension))}
    return AlgebraMap(alg, images, name="phi"), order
