"""Bounded-degree Sullivan minimal models.

Generators are added degree by degree against a target cochain algebra: in
each degree p, first closed generators until H^p maps onto H^p of the target,
then generators killing the kernel of the map on H^{p+1}, in whole rounds:
a round adds one generator y with dy = z for every basis class z of the
kernel.  New generators can spawn new kernel classes, so rounds repeat until
the map is injective; degree-1 generators therefore arrive in stages, which
is exactly what non-simply-connected (nilmanifold-type) targets require.
The differential of every added generator is decomposable by construction,
since it is a cocycle of degree p+1 in an algebra generated below degree
p+1.

One model grows through a minimal_model call, one ``DGA.extend`` per round:
each degree's basis gains the new monomials at its end, d is expanded on
those alone, and the cohomology and induced map of each degree below p stay
as computed, since a degree-p generator cannot change them.

The target can be a DGA or a subcomplex that is closed under products
(everything here goes through the shared cochain-algebra interface).  A
model of a subcomplex extends, by one closed degree-1 generator, to a
candidate model of the whole complex (``circle_extension``), checked as
``minimal_model`` checks its own result; ``eta`` builds ℳ(Omega) of a
co-Kahler model that way from ℳ(Omega_1).  The comparison map's
table of products is keyed by generator-index tuples, which stay valid as
generators are appended and across the one change of key encoding.
"""

from __future__ import annotations

from collections import Counter

from . import linalg
from .cdga import DGA, Derivation
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
        return self.push_coords(alg, elem.degree, alg.coords(elem))

    def push_coords(self, alg: GradedAlgebra, p: int,
                    coords: linalg.Vector) -> linalg.Vector:
        """Image of the model cochain with these coordinates on
        ``alg.basis(p)``: each coefficient times its product of images."""
        keys = alg.basis(p)
        return linalg.combine(coords, {
            i: self.product(alg, alg.key_indices(keys[i])) for i in coords})

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

    @property
    def quasi_iso(self) -> bool:
        return all(self.iso_degrees) and self.injective_above


class _Builder:
    """Mutable construction state: the model, grown by one ``DGA.extend``
    per round of added generators, and its maps on cohomology, of which a
    round of degree-p generators keeps those of the degrees below p."""

    def __init__(self, target, cap: int, model: DGA | None = None,
                 images: list[linalg.Vector] = ()):
        self.target = target
        self.cap = cap
        self.comparison = _ComparisonMap(target)
        self.comparison.images = list(images)
        if model is None:
            alg = GradedAlgebra([], max_degree=cap + 2)
            model = DGA(alg, Derivation(alg, 1, {}, name="d"))
        self._model = model
        self._round: list[Generator] = []
        self._d_images: dict[str, Element] = {}
        self._maps: dict[int, InducedMap] = {}

    def dga(self) -> DGA:
        """The model, extended by the generators added since last asked."""
        if self._round:
            self._model = self._model.extend(self._round, self._d_images)
            low = min(g.degree for g in self._round)
            self._maps = {q: m for q, m in self._maps.items() if q < low}
            self._round, self._d_images = [], {}
        return self._model

    def add_generator(self, degree: int, d_image: Element | None,
                      target_coords: linalg.Vector):
        """A generator of the next round; ``d_image`` is an element of the
        current model."""
        gen = Generator(f"x{len(self.comparison.images) + 1}", degree)
        self._round.append(gen)
        if d_image is not None:
            self._d_images[gen.name] = d_image
        self.comparison.images.append(dict(target_coords))

    def induced_map(self, p: int) -> InducedMap:
        """The map H^p(model) -> H^p(target), once per change of H^p."""
        model = self.dga()
        if p not in self._maps:
            self._maps[p] = induced_map(
                model, p, self.target, p, lambda rep:
                self.comparison.push_coords(model.algebra, p, rep))
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


def circle_extension(model: SullivanModel,
                     t_image: linalg.Vector) -> SullivanModel:
    """ℳ (x) Λ(t), dt = 0, for ``model`` = ℳ of a subcomplex, mapped into
    the subcomplex's parent: each generator of ℳ to its image there, t to
    ``t_image``, a degree-1 cocycle of the parent.  It is checked as a
    model of the parent through ``model.cap`` by ``_finalize``, as a
    ``minimal_model`` of the parent is."""
    sub = model.comparison.target
    builder = _Builder(sub.parent, model.cap, model.dga, [
        sub.parent_coords(g.degree, v) for g, v in
        zip(model.dga.algebra.generators, model.comparison.images)])
    builder.add_generator(1, None, t_image)
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
        cocycles = [ring.representative_of(p + 1, k) for k in kernel]
        for z in cocycles:
            w = builder.target.solve_d(p, builder.comparison.push_coords(
                model.algebra, p + 1, z))
            if w is None:
                raise StructureError("kernel class pushes to a non-exact "
                                     "cocycle; broken morphism")
            builder.add_generator(p, model.element(p + 1, z), w)


def _finalize(builder: _Builder) -> SullivanModel:
    model, target = builder.dga(), builder.target
    comparison = builder.comparison
    # chain-map check: pushing commutes with the differentials
    images = model.d.images
    for i, gen in enumerate(model.algebra.generators):
        lhs = comparison.push(images[i]) if i in images else {}
        rhs = linalg.combine(comparison.images[i],
                             target.d_columns(gen.degree))
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
    return all(len(alg.key_indices(key)) >= 2
               for img in model.d.images.values() for key in img.terms)
