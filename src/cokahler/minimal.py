"""Bounded-degree Sullivan minimal models.

Generators are added degree by degree against a target cochain algebra: in
each degree p, first closed generators until H^p maps onto H^p of the target,
then generators killing the kernel of the map on H^{p+1}.  Degree-1
generators are therefore added in stages, which is exactly what
non-simply-connected (nilmanifold-type) targets require; the differential
of every added generator is decomposable by construction, since it is a
cocycle of degree p+1 in an algebra generated below degree p+1.

The target can be a DGA or a subcomplex that is closed under products
(everything here goes through the shared cochain-algebra interface).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cdga import DGA, Derivation, embed_element, tensor_product, free_line_dga
from .cohomology import InducedMap, _map_from_columns
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra

# desk-scale budgets: corpus models stabilize within a couple of rounds, and
# non-nilpotent targets (whose models are infinitely generated per degree)
# must fail fast instead of grinding
_STAGE_CAP = 12
_GENERATOR_CAP = 32


@dataclass
class SullivanModel:
    """Free model with decomposable differential plus the comparison map."""
    dga: DGA
    target: object
    images: list[list[Fraction]]      # target coordinates, one per generator
    cap: int
    minimal: bool
    iso_degrees: list[bool]           # H^p isomorphism for p <= cap
    injective_above: bool             # injectivity in degree cap + 1

    def generator_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for g in self.dga.algebra.generators:
            counts[g.degree] = counts.get(g.degree, 0) + 1
        return counts

    def push(self, elem: Element) -> list[Fraction]:
        """Image of a model element in target coordinates."""
        return _push(self.dga.algebra, self.images, elem, self.target)

    @property
    def quasi_iso(self) -> bool:
        return all(self.iso_degrees) and self.injective_above


def _push(alg: GradedAlgebra, images, elem: Element, target) -> list[Fraction]:
    out = [Fraction(0)] * target.dim(elem.degree)
    unit = [Fraction(1)] if target.dim(0) else []
    for key, coeff in elem.terms.items():
        vec = [coeff * u for u in unit]
        deg = 0
        for i in alg.key_indices(key):
            gd = alg.degree_of(i)
            vec = target.wedge_coords(deg, vec, gd, images[i])
            deg += gd
        out = [out[t] + vec[t] for t in range(len(out))]
    return out


class _Builder:
    """Mutable construction state; the algebra is rebuilt as generators
    arrive (names are stable, so re-embedding the differential is safe)."""

    def __init__(self, target, cap: int):
        self.target = target
        self.cap = cap
        self.gens: list[Generator] = []
        self.d_images: dict[str, Element] = {}
        self.images: list[list[Fraction]] = []
        self._dga: DGA | None = None

    def dga(self) -> DGA:
        if self._dga is None:
            alg = GradedAlgebra(self.gens, max_degree=self.cap + 2)
            images = {}
            for name, img in self.d_images.items():
                if not img.is_zero():
                    images[alg.index(name)] = embed_element(img, alg)
            self._dga = DGA(alg, Derivation(alg, 1, images, name="d"))
        return self._dga

    def add_generator(self, degree: int, d_image: Element | None,
                      target_coords: list[Fraction]):
        if len(self.gens) >= _GENERATOR_CAP:
            raise StructureError("minimal model construction exceeded the "
                                 "generator budget; target looks non-nilpotent")
        name = f"x{len(self.gens) + 1}"
        self.gens = self.gens + [Generator(name, degree)]
        if d_image is not None and not d_image.is_zero():
            self.d_images[name] = d_image
        self.images.append([Fraction(v) for v in target_coords])
        self._dga = None

    def induced_map(self, p: int) -> InducedMap:
        """The map H^p(model) -> H^p(target)."""
        model = self.dga()
        ring_m = model.cohomology()
        ring_t = self.target.cohomology()
        cols = []
        for rep in ring_m.representatives(p):
            elem = model.element(p, rep)
            vec = _push(model.algebra, self.images, elem, self.target)
            cols.append(ring_t.class_of(p, vec))
        return _map_from_columns(p, cols, ring_m.dim(p), ring_t.dim(p))


def minimal_model(target, cap: int) -> SullivanModel:
    """Sullivan minimal model of a cochain algebra, exact through degree
    ``cap`` (isomorphism on H^p for p <= cap, injective in degree cap+1)."""
    if cap < 1:
        raise StructureError("a degree cap below 1 states nothing; use cap >= 1")
    ring_t = target.cohomology()
    if ring_t.dim(0) != 1:
        raise StructureError("target must be connected: H^0 of rank 1")
    builder = _Builder(target, cap)
    for p in range(1, cap + 1):
        _extend_surjective(builder, p)
        _kill_kernel(builder, p)
    return _finalize(builder)


def _extend_surjective(builder: _Builder, p: int):
    """Add closed degree-p generators until H^p maps onto the target."""
    ring_t = builder.target.cohomology()
    image_rows = [c for c in linalg.transpose(builder.induced_map(p).matrix)
                  if any(c)]
    for i in range(ring_t.dim(p)):
        unit = linalg.unit_vector(ring_t.dim(p), i)
        rows, pivots = linalg.rref(image_rows) if image_rows else ([], [])
        if linalg.in_row_space(unit, rows, pivots):
            continue
        rep = ring_t.representative_of(p, unit)
        builder.add_generator(p, None, rep)
        image_rows.append(unit)


def _kill_kernel(builder: _Builder, p: int):
    """Add degree-p generators with dy = z for kernel classes z of the map
    on H^{p+1}, until that map is injective."""
    for _ in range(_STAGE_CAP):
        kernel = builder.induced_map(p + 1).kernel_classes
        if not kernel:
            return
        model = builder.dga()
        z = model.element(p + 1, model.cohomology().representative_of(
            p + 1, kernel[0]))
        pushed = _push(model.algebra, builder.images, z, builder.target)
        w = builder.target.solve_d(p, pushed)
        if w is None:
            raise StructureError(
                "kernel class pushes to a non-exact cocycle; broken morphism")
        builder.add_generator(p, z, w)
    raise StructureError(
        f"degree {p} stage did not stabilize in {_STAGE_CAP} rounds")


def _finalize(builder: _Builder) -> SullivanModel:
    model = builder.dga()
    alg = model.algebra
    # chain-map check: pushing commutes with the differentials
    for i, gen in enumerate(alg.generators):
        lhs = _push(alg, builder.images, model.d.image_of(i), builder.target)
        rhs = linalg.mat_vec(builder.target.d_matrix(gen.degree),
                             builder.images[i])
        if lhs != rhs:
            raise StructureError("comparison map is not a chain map")
    minimal = _is_minimal(model)
    iso = [builder.induced_map(p).isomorphism for p in range(builder.cap + 1)]
    injective = builder.induced_map(builder.cap + 1).injective
    return SullivanModel(model, builder.target, builder.images, builder.cap,
                         minimal, iso, injective)


def _is_minimal(model: DGA) -> bool:
    """Differential lands in products of at least two generators."""
    alg = model.algebra
    for i in range(len(alg)):
        img = model.d.image_of(i)
        for key in img.terms:
            if len(alg.key_indices(key)) < 2:
                return False
    return True


@dataclass
class TensorSplitReport:
    """Minimal-model comparison ℳ(Omega_eta) against ℳ(Omega_1) (x) (eta)."""
    counts_eta: dict[int, int]
    counts_basic: dict[int, int]
    counts_match: bool
    betti_eta: tuple[int, ...]
    betti_tensor: tuple[int, ...]
    betti_match: bool
    cochain_split_ok: bool
    models_minimal: bool
    models_quasi_iso: bool

    @property
    def ok(self) -> bool:
        return (self.counts_match and self.betti_match and
                self.cochain_split_ok and self.models_minimal and
                self.models_quasi_iso)


def model_tensor_split_check(m, cap: int) -> TensorSplitReport:
    """Verify that the minimal model of the invariant forms splits off a
    one-dimensional circle factor over the minimal model of the iota-kernel,
    and that the split is an equality already at the cochain level."""
    from .eta import omega_splitting
    from .geometry import classify
    if not classify(m).coKahler:
        raise StructureError(
            f"model {m.name!r} is not co-Kahler; the tensor splitting of the "
            "minimal model is only claimed under that hypothesis")
    split = omega_splitting(m)
    model_eta = minimal_model(split.omega_eta, cap)
    model_basic = minimal_model(split.omega1, cap)
    counts_eta = model_eta.generator_counts()
    counts_basic = model_basic.generator_counts()
    counts_match = all(
        counts_eta.get(p, 0) == counts_basic.get(p, 0) + (1 if p == 1 else 0)
        for p in range(1, cap + 1))
    circle = free_line_dga("eta_gen")
    product = tensor_product(model_basic.dga, circle, max_degree=cap + 2)
    betti_eta = model_eta.dga.cohomology().betti()[:cap + 1]
    betti_tensor = product.cohomology().betti()[:cap + 1]
    cochain_ok = split.ok
    return TensorSplitReport(
        counts_eta, counts_basic, counts_match,
        betti_eta, betti_tensor, betti_eta == betti_tensor,
        cochain_ok,
        model_eta.minimal and model_basic.minimal,
        model_eta.quasi_iso and model_basic.quasi_iso)
