"""Bounded-degree Sullivan minimal models.

Generators are added degree by degree against a target cochain algebra: in
each degree p, first closed generators until H^p maps onto H^p of the target,
then generators killing the kernel of the map on H^{p+1}, in whole rounds:
a round adds one generator y with dy = z for every basis class z of the
kernel, and the model is rebuilt once per round.  New generators can spawn
new kernel classes, so rounds repeat until the map is injective; degree-1
generators therefore arrive in stages, which is exactly what
non-simply-connected (nilmanifold-type) targets require.  The differential
of every added generator is decomposable by construction, since it is a
cocycle of degree p+1 in an algebra generated below degree p+1.

The target can be a DGA or a subcomplex that is closed under products
(everything here goes through the shared cochain-algebra interface); the
co-Kahler check on minimal models lives in ``eta``.  The
comparison map's table of products is keyed by generator-index tuples, which
stay valid as generators are appended, so it is kept across every rebuild of
the model (whose monomial keys may change encoding) in a minimal_model call.
"""

from __future__ import annotations

from collections import Counter

from . import linalg
from .cdga import DGA, Derivation, embed_element
from .cohomology import InducedMap, induced_map
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra
from .record import Record

# The only budget: kill rounds per degree.  A nilpotent target closes each
# stage after a few rounds.  A non-nilpotent target has a model that is
# infinitely generated in some degree, so every round leaves a new kernel;
# the construction stops at this bound instead of growing without end.
_STAGE_CAP = 12


class _ComparisonMap:
    """Model -> target on coordinates: the generator images and a write-once
    table from generator-index tuples to the coordinates of their product."""

    def __init__(self, target):
        self.target = target
        self.images: list[linalg.Vector] = []   # target coordinates
        self.table = {(): {0: 1} if target.dim(0) else {}}

    def push(self, elem: Element) -> linalg.Vector:
        """Image of a model element in target coordinates."""
        alg = elem.algebra
        products = [self.product(alg, alg.key_indices(key))
                    for key in elem.terms]
        # the sum of each term's coefficient times its product of images
        return linalg.combine(dict(enumerate(elem.terms.values())), products)

    def product(self, alg: GradedAlgebra, idx: tuple[int, ...]):
        """phi(g m) = phi(g) phi(m), g the first generator, filled once
        through ``wedge_coords``: a subcomplex target checks each product."""
        if idx not in self.table:
            rest = idx[1:]
            self.table[idx] = self.target.wedge_coords(
                alg.degree_of(idx[0]), self.images[idx[0]],
                sum(map(alg.degree_of, rest)), self.product(alg, rest))
        return self.table[idx]


class SullivanModel(Record):
    """Free model with decomposable differential plus the comparison map."""
    dga: DGA
    comparison: _ComparisonMap
    cap: int
    minimal: bool
    iso_degrees: list[bool]           # H^p isomorphism for p <= cap
    injective_above: bool             # injectivity in degree cap + 1

    def generator_counts(self) -> dict[int, int]:
        return dict(Counter(g.degree for g in self.dga.algebra.generators))

    def push(self, elem: Element) -> linalg.Vector:
        return self.comparison.push(elem)

    @property
    def quasi_iso(self) -> bool:
        return all(self.iso_degrees) and self.injective_above


class _Builder:
    """Mutable construction state.  The model DGA and its induced maps are
    built on demand and dropped when generators arrive (names are stable, so
    re-embedding the differential is safe)."""

    def __init__(self, target, cap: int):
        self.target = target
        self.cap = cap
        self.gens: list[Generator] = []
        self.d_images: dict[str, Element] = {}
        self.comparison = _ComparisonMap(target)
        self._dga: DGA | None = None
        self._maps: dict[int, InducedMap] = {}

    def dga(self) -> DGA:
        if self._dga is None:
            alg = GradedAlgebra(self.gens, max_degree=self.cap + 2)
            images = {alg.index(name): embed_element(img, alg)
                      for name, img in self.d_images.items()}
            self._dga = DGA(alg, Derivation(alg, 1, images, name="d"))
        return self._dga

    def add_generator(self, degree: int, d_image: Element | None,
                      target_coords: linalg.Vector):
        name = f"x{len(self.gens) + 1}"
        self.gens = self.gens + [Generator(name, degree)]
        if d_image is not None and not d_image.is_zero():
            self.d_images[name] = d_image
        self.comparison.images.append(dict(target_coords))
        self._dga = None
        self._maps = {}

    def induced_map(self, p: int) -> InducedMap:
        """The map H^p(model) -> H^p(target), once per built model."""
        if p not in self._maps:
            model = self.dga()
            self._maps[p] = induced_map(
                model, p, self.target, p,
                lambda rep: self.comparison.push(model.element(p, rep)))
        return self._maps[p]


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
    """Add closed degree-p generators until H^p maps onto the target.

    The classes added are the target basis classes e_i outside the image
    plus e_0 ... e_{i-1}, in order: the greedy choice.  One rref of the
    columns [image | I] finds them all, because a column of a matrix is a
    pivot column of its rref exactly when it lies outside the span of the
    columns before it; so the pivots on the identity side are those e_i.
    """
    ind = builder.induced_map(p)
    shift = ind.source_dim
    augmented = [{**row, shift + i: 1} for i, row in enumerate(ind.matrix)]
    ring_t = builder.target.cohomology()
    for col in linalg.rref(augmented)[1]:
        if col >= shift:
            unit = {col - shift: 1}
            builder.add_generator(p, None, ring_t.representative_of(p, unit))


def _kill_kernel(builder: _Builder, p: int):
    """Kill the kernel of the map on H^{p+1} in rounds: each round adds a
    degree-p generator y with dy = z for every basis class z of the kernel,
    until the map is injective or the round bound is spent."""
    for rounds in range(_STAGE_CAP + 1):
        kernel = builder.induced_map(p + 1).kernel_classes
        if not kernel:
            return
        if rounds == _STAGE_CAP:
            raise StructureError(
                f"degree {p} stage did not stabilize in {_STAGE_CAP} rounds")
        model = builder.dga()
        ring = model.cohomology()
        cocycles = [model.element(p + 1, ring.representative_of(p + 1, k))
                    for k in kernel]
        for z in cocycles:
            w = builder.target.solve_d(p, builder.comparison.push(z))
            if w is None:
                raise StructureError("kernel class pushes to a non-exact "
                                     "cocycle; broken morphism")
            builder.add_generator(p, z, w)


def _finalize(builder: _Builder) -> SullivanModel:
    model = builder.dga()
    comparison = builder.comparison
    # chain-map check: pushing commutes with the differentials
    for i, gen in enumerate(model.algebra.generators):
        lhs = comparison.push(model.d.image_of(i))
        rhs = linalg.mat_vec(builder.target.d_matrix(gen.degree),
                             comparison.images[i])
        if lhs != rhs:
            raise StructureError("comparison map is not a chain map")
    minimal = _is_minimal(model)
    iso = [builder.induced_map(p).isomorphism for p in range(builder.cap + 1)]
    injective = builder.induced_map(builder.cap + 1).injective
    return SullivanModel(model, comparison, builder.cap, minimal, iso,
                         injective)


def _is_minimal(model: DGA) -> bool:
    """Differential lands in products of at least two generators."""
    alg = model.algebra
    return all(len(alg.key_indices(key)) >= 2 for i in range(len(alg))
               for key in model.d.image_of(i).terms)
