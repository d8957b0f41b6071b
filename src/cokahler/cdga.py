"""Differentials, graded derivations, subcomplexes and algebra maps.

A derivation is determined by its generator images and extended by the graded
Leibniz rule; the differential of a DGA is a degree +1 derivation.  Operator
identities (d squared, supercommutators, chain-map conditions) are checked
exactly, basis monomial by basis monomial, which is the column-by-column form
of the corresponding matrix identity.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra


class Derivation:
    """Graded derivation of fixed degree, determined by generator images.

    Missing generators map to zero; every derivation vanishes on scalars.
    Per-degree matrices are computed lazily and cached (write-once).
    """

    def __init__(self, algebra: GradedAlgebra, degree: int,
                 images: dict[int, Element], name: str = ""):
        self.algebra = algebra
        self.degree = degree
        self.name = name
        self.images: dict[int, Element] = {}
        for i, img in images.items():
            gen = algebra.generators[i]
            if img.is_zero():
                continue
            if img.algebra is not algebra:
                raise StructureError(
                    f"image of {gen.name} lives in a different algebra")
            if img.degree != gen.degree + degree:
                raise StructureError(
                    f"image of {gen.name} has degree {img.degree}, expected "
                    f"{gen.degree + degree} for a degree {degree} derivation")
            self.images[i] = img
        self._matrices: dict[int, linalg.Matrix] = {}

    def image_of(self, i: int) -> Element:
        gen = self.algebra.generators[i]
        return self.images.get(i, self.algebra.zero(gen.degree + self.degree))

    def apply(self, elem: Element) -> Element:
        if elem.algebra is not self.algebra:
            raise StructureError("element belongs to a different algebra")
        alg = self.algebra
        out = alg.zero(elem.degree + self.degree)
        for key, coeff in elem.terms.items():
            idx = alg.key_indices(key)
            prefix_deg = 0
            for t, gi in enumerate(idx):
                img = self.images.get(gi)
                if img is not None:
                    sign = -1 if (self.degree * prefix_deg) % 2 else 1
                    left = alg.monomial(*idx[:t], coeff=coeff * sign)
                    right = alg.monomial(*idx[t + 1:])
                    out = out + left.wedge(img).wedge(right)
                prefix_deg += alg.degree_of(gi)
        return out

    def __call__(self, elem: Element) -> Element:
        return self.apply(elem)

    def matrix(self, p: int) -> linalg.Matrix:
        """Matrix of the derivation from degree p to degree p + |f|."""
        if p not in self._matrices:
            alg = self.algebra
            target = alg.dim(p + self.degree)
            cols = []
            for key in alg.basis(p):
                img = self.apply(Element(alg, p, {key: Fraction(1)}))
                cols.append(alg.coords(img) if target else [])
            self._matrices[p] = [[col[i] for col in cols] for i in range(target)]
        return self._matrices[p]

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())

    def __repr__(self) -> str:
        label = self.name or "derivation"
        return f"<{label}: degree {self.degree:+d} on {len(self.algebra)} generators>"


def extend_derivation(algebra: GradedAlgebra, images: dict, degree: int,
                      name: str = "") -> Derivation:
    """Unique graded derivation matching the given generator images.

    Keys may be generator names or indices.
    """
    by_index = {}
    for key, img in images.items():
        i = key if isinstance(key, int) else algebra.index(key)
        by_index[i] = img
    return Derivation(algebra, degree, by_index, name=name)


def supercommutator(f: Derivation, g: Derivation) -> Derivation:
    """{f, g} = f g - (-1)^{|f||g|} g f, returned as a derivation.

    The extension-from-generators result is checked against the literal
    composition on every basis monomial.
    """
    if f.algebra is not g.algebra:
        raise StructureError("derivations act on different algebras")
    alg = f.algebra
    sign = -1 if (f.degree * g.degree) % 2 else 1
    images = {}
    for i in range(len(alg)):
        gen_elem = alg.gen(i)
        img = f.apply(g.apply(gen_elem)) - g.apply(f.apply(gen_elem)).scale(sign)
        if not img.is_zero():
            images[i] = img
    name = f"{{{f.name or 'f'},{g.name or 'g'}}}"
    der = Derivation(alg, f.degree + g.degree, images, name=name)
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            mono = Element(alg, p, {key: Fraction(1)})
            direct = f.apply(g.apply(mono)) - g.apply(f.apply(mono)).scale(sign)
            if der.apply(mono) != direct:
                raise StructureError(
                    f"supercommutator extension disagrees with composition on "
                    f"{alg.key_str(key)}")
    return der


class DGA:
    """Free graded-commutative algebra with a degree +1 differential."""

    def __init__(self, algebra: GradedAlgebra, differential: Derivation):
        if differential.algebra is not algebra:
            raise StructureError("differential acts on a different algebra")
        if differential.degree != 1:
            raise StructureError("differential must have degree +1")
        self.algebra = algebra
        self.d = differential
        self._cohomology = None

    @property
    def top(self) -> int:
        return self.algebra.top

    def dim(self, p: int) -> int:
        return self.algebra.dim(p)

    def d_matrix(self, p: int) -> linalg.Matrix:
        return self.d.matrix(p)

    def element(self, p: int, coords) -> Element:
        return self.algebra.element(p, coords)

    def coords(self, p: int, elem: Element) -> list[Fraction]:
        if elem.degree != p and not elem.is_zero():
            raise StructureError(f"element has degree {elem.degree}, expected {p}")
        if elem.is_zero():
            return [Fraction(0)] * self.dim(p)
        return self.algebra.coords(elem)

    def wedge_coords(self, p: int, v, q: int, w) -> list[Fraction]:
        prod = self.element(p, v).wedge(self.element(q, w))
        return [Fraction(0)] * self.dim(p + q) if prod.is_zero() else prod.coords()

    def solve_d(self, p: int, target, column_order=None):
        """Coordinates x in degree p with d x = target (degree p+1), or None."""
        n = self.dim(p)
        if n == 0:
            return [] if all(v == 0 for v in target) else None
        mat = self.d_matrix(p)
        if not mat:
            return [Fraction(0)] * n if all(v == 0 for v in target) else None
        return linalg.solve(mat, list(target), column_order=column_order)

    def cohomology(self):
        if self._cohomology is None:
            from .cohomology import CohomologyRing
            self._cohomology = CohomologyRing(self)
        return self._cohomology

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.algebra.generators)
        return f"<DGA on ({names})>"


def check_d_squared(dga: DGA) -> bool:
    """True iff d(d(m)) = 0 for every basis monomial in every degree."""
    alg = dga.algebra
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            mono = Element(alg, p, {key: Fraction(1)})
            if not dga.d.apply(dga.d.apply(mono)).is_zero():
                return False
    return True


def check_leibniz(der: Derivation) -> bool:
    """Leibniz identity on all basis-monomial products up to the top degree."""
    alg = der.algebra
    for p in range(alg.top + 1):
        for q in range(alg.top + 1 - p):
            for k1 in alg.basis(p):
                a = Element(alg, p, {k1: Fraction(1)})
                da = der.apply(a)
                for k2 in alg.basis(q):
                    b = Element(alg, q, {k2: Fraction(1)})
                    lhs = der.apply(a.wedge(b))
                    sign = -1 if (p * der.degree) % 2 else 1
                    rhs = da.wedge(b) + a.wedge(der.apply(b)).scale(sign)
                    if lhs != rhs:
                        return False
    return True


def supercommutes_with_d(dga: DGA, op: Derivation) -> bool:
    """Whether {d, op} vanishes on every basis monomial."""
    alg = dga.algebra
    sign = -1 if (op.degree % 2) else 1
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            mono = Element(alg, p, {key: Fraction(1)})
            anti = dga.d.apply(op.apply(mono)) - op.apply(dga.d.apply(mono)).scale(sign)
            if not anti.is_zero():
                return False
    return True


class Subcomplex:
    """Degreewise subspace of a DGA, closed under d.

    Bases are stored canonically (reduced echelon rows over the parent
    monomial basis), so two subcomplexes with equal spans have equal bases.
    """

    def __init__(self, parent: DGA, spans: dict[int, list[list[Fraction]]],
                 check_closed: bool = True):
        self.parent = parent
        self._rows: dict[int, linalg.Matrix] = {}
        self._pivots: dict[int, list[int]] = {}
        for p in range(parent.top + 1):
            vecs = spans.get(p, [])
            rows, pivots = linalg.rref(vecs) if vecs else ([], [])
            self._rows[p] = rows
            self._pivots[p] = pivots
        self._d_matrices: dict[int, linalg.Matrix] = {}
        self._cohomology = None
        self.closed = True
        if check_closed:
            for p in range(parent.top + 1):
                self.d_matrix(p)  # raises on a closure failure

    @property
    def top(self) -> int:
        return self.parent.top

    def dim(self, p: int) -> int:
        return len(self._rows.get(p, []))

    def basis_vectors(self, p: int) -> linalg.Matrix:
        """Canonical basis, one row per generator, in parent coordinates."""
        return self._rows.get(p, [])

    def basis_elements(self, p: int) -> list[Element]:
        return [self.parent.element(p, row) for row in self.basis_vectors(p)]

    def contains(self, p: int, parent_coords) -> bool:
        if all(v == 0 for v in parent_coords):
            return True
        return linalg.in_row_space(list(parent_coords),
                                   self._rows.get(p, []), self._pivots.get(p, []))

    def coords(self, p: int, parent_coords) -> list[Fraction]:
        """Coordinates in the canonical basis; raises if not a member."""
        vec = list(parent_coords)
        if not self.contains(p, vec):
            raise StructureError(f"vector is not in the degree {p} subspace")
        return [vec[c] for c in self._pivots.get(p, [])]

    def parent_coords(self, p: int, coords) -> list[Fraction]:
        n = self.parent.dim(p)
        out = [Fraction(0)] * n
        for c, row in zip(coords, self._rows.get(p, [])):
            if c:
                out = [out[j] + c * row[j] for j in range(n)]
        return out

    def element(self, p: int, coords) -> Element:
        return self.parent.element(p, self.parent_coords(p, coords))

    def d_matrix(self, p: int) -> linalg.Matrix:
        if p not in self._d_matrices:
            cols = []
            parent_d = self.parent.d_matrix(p)
            for row in self.basis_vectors(p):
                img = linalg.mat_vec(parent_d, row)
                if not self.contains(p + 1, img):
                    elem = self.parent.element(p, row)
                    raise StructureError(
                        f"subspace is not closed under d in degree {p}: "
                        f"d({elem!r}) leaves the subspace")
                cols.append(self.coords(p + 1, img))
            target = self.dim(p + 1)
            self._d_matrices[p] = [[col[i] for col in cols] for i in range(target)]
        return self._d_matrices[p]

    def wedge_coords(self, p: int, v, q: int, w) -> list[Fraction]:
        prod = self.element(p, v).wedge(self.element(q, w))
        if prod.is_zero():
            return [Fraction(0)] * self.dim(p + q)
        return self.coords(p + q, self.parent.coords(p + q, prod))

    def solve_d(self, p: int, target, column_order=None):
        n = self.dim(p)
        if n == 0:
            return [] if all(v == 0 for v in target) else None
        mat = self.d_matrix(p)
        if not mat:
            return [Fraction(0)] * n if all(v == 0 for v in target) else None
        return linalg.solve(mat, list(target), column_order=column_order)

    def cohomology(self):
        if self._cohomology is None:
            from .cohomology import CohomologyRing
            self._cohomology = CohomologyRing(self)
        return self._cohomology

    def betti(self) -> tuple[int, ...]:
        return self.cohomology().betti()

    def __repr__(self) -> str:
        dims = ",".join(str(self.dim(p)) for p in range(self.top + 1))
        return f"<Subcomplex dims ({dims})>"


def full_subcomplex(dga: DGA) -> Subcomplex:
    spans = {p: linalg.identity(dga.dim(p)) for p in range(dga.top + 1)}
    return Subcomplex(dga, spans, check_closed=False)


def embed_element(elem: Element, target: GradedAlgebra) -> Element:
    """Re-express an element in an algebra containing generators of the
    same names (used for tensor factors)."""
    src = elem.algebra
    out = target.zero(elem.degree)
    for key, coeff in elem.terms.items():
        names = [src.generators[i].name for i in src.key_indices(key)]
        out = out + target.monomial(*names, coeff=coeff)
    return out


def tensor_product(a: DGA, b: DGA, max_degree: int | None = None) -> DGA:
    """Free graded-commutative product with the Koszul-signed differential
    d(x y) = dx y + (-1)^{|x|} x dy."""
    names_a = {g.name for g in a.algebra.generators}
    names_b = {g.name for g in b.algebra.generators}
    clash = names_a & names_b
    if clash:
        raise StructureError(f"generator name collision: {sorted(clash)}")
    gens = a.algebra.generators + b.algebra.generators
    cap = max_degree
    if cap is None and any(g.degree % 2 == 0 for g in gens):
        cap = a.top + b.top
    algebra = GradedAlgebra(gens, max_degree=cap)
    images = {}
    for src in (a, b):
        for i, gen in enumerate(src.algebra.generators):
            img = src.d.image_of(i)
            if not img.is_zero():
                images[gen.name] = embed_element(img, algebra)
    return DGA(algebra, extend_derivation(algebra, images, 1, name="d"))


def free_line_dga(name: str = "t") -> DGA:
    """The circle model: one closed degree-1 generator."""
    algebra = GradedAlgebra([Generator(name, 1)])
    return DGA(algebra, extend_derivation(algebra, {}, 1, name="d"))


class AlgebraMap:
    """Degree-preserving algebra endomorphism given by generator images."""

    def __init__(self, algebra: GradedAlgebra, images: dict, name: str = ""):
        self.algebra = algebra
        self.name = name
        self.images: list[Element] = []
        for i, gen in enumerate(algebra.generators):
            img = images.get(gen.name, images.get(i))
            if img is None:
                raise StructureError(f"no image given for generator {gen.name}")
            if img.algebra is not algebra:
                raise StructureError(f"image of {gen.name} lives elsewhere")
            if not img.is_zero() and img.degree != gen.degree:
                raise StructureError(
                    f"image of {gen.name} must have degree {gen.degree}")
            self.images.append(img)
        self._matrices: dict[int, linalg.Matrix] = {}

    def apply(self, elem: Element) -> Element:
        alg = self.algebra
        out = alg.zero(elem.degree)
        for key, coeff in elem.terms.items():
            prod = alg.scalar(coeff)
            for i in alg.key_indices(key):
                prod = prod.wedge(self.images[i])
                if prod.is_zero():
                    break
            out = out + prod
        return out

    def __call__(self, elem: Element) -> Element:
        return self.apply(elem)

    def matrix(self, p: int) -> linalg.Matrix:
        if p not in self._matrices:
            alg = self.algebra
            n = alg.dim(p)
            cols = [alg.coords(self.apply(Element(alg, p, {key: Fraction(1)})))
                    for key in alg.basis(p)]
            self._matrices[p] = [[col[i] for col in cols] for i in range(n)]
        return self._matrices[p]

    def is_automorphism(self) -> bool:
        return all(linalg.rank(self.matrix(p)) == self.algebra.dim(p)
                   for p in range(1, self.algebra.top + 1))

    def has_order(self, m: int) -> bool:
        if m < 1:
            return False
        return all(linalg.mat_eq(linalg.mat_pow(self.matrix(p), m),
                                 linalg.identity(self.algebra.dim(p)))
                   for p in range(1, self.algebra.top + 1))

    def commutes_with(self, der: Derivation) -> bool:
        alg = self.algebra
        for p in range(alg.top + 1):
            for key in alg.basis(p):
                mono = Element(alg, p, {key: Fraction(1)})
                if self.apply(der.apply(mono)) != der.apply(self.apply(mono)):
                    return False
        return True


def invariant_subalgebra(dga: DGA, phi: AlgebraMap, order: int) -> Subcomplex:
    """Degreewise fixed subspaces of a finite-order automorphism commuting
    with d, as a subcomplex."""
    if phi.algebra is not dga.algebra:
        raise StructureError("automorphism acts on a different algebra")
    if not phi.is_automorphism():
        raise StructureError("map is not an algebra automorphism")
    if not phi.has_order(order):
        raise StructureError(f"map does not have order {order}")
    if not phi.commutes_with(dga.d):
        raise StructureError("automorphism does not commute with d")
    spans = {}
    for p in range(dga.top + 1):
        n = dga.dim(p)
        diff = linalg.mat_sub(phi.matrix(p), linalg.identity(n))
        spans[p] = linalg.kernel_basis(diff, n)
    return Subcomplex(dga, spans, check_closed=True)
