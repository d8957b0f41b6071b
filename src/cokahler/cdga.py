"""Differentials, graded derivations, subcomplexes and algebra maps.

A derivation is determined by its generator images, fixed at construction,
and extended by the graded Leibniz rule; an algebra map multiplies them.
``derivation`` shares one operator per (algebra, degree, generator images):
iota_xi and rho_eta are one object; a direct ``Derivation`` is never shared.
Every operator is read through one cached table of basis monomial images
(``image``); the differential of a DGA is a degree +1 derivation.  Each
derivation checks the Leibniz rule once, one pair per basis monomial
(``Derivation.leibniz_failure``).  On that premise the identities between
derivations (supercommutators, d squared, {d, op} = 0) are decided on
generators, as a supercommutator of derivations is a derivation; a failed
premise makes them false or raises with the failing monomial.  The report's
iota_xi^2 = 0 and Cartan's {d, iota_xi} = L_xi are decided so too.  Literal
compositions (chain maps, and in the tests iota_X^2 and {d, iota_X} against
the coadjoint derivative for every X) are checked exactly by
``word_disagreements`` on the tables, basis monomial by basis monomial (the
column-by-column form of the matrix identity).  Each verdict has one name
(d^2 = 0 is ``supercommutes_with_d(dga, dga.d)``).  d_eta = L_xi
needs no pass: when eta is the dual of xi, ``derivation`` hands out one
operator for both.  Every kernel subcomplex is ``Subcomplex.kernel_of``.
A complex owns what its cohomology has computed; ``cohomology()`` is a
view of that store, and the complex keeps no reference to a view.

Coordinates are ``linalg`` sparse vectors; a degree-p matrix has one sparse
row per target basis monomial, filled from each source monomial's image.
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict

from . import linalg
from .cohomology import CohomologyRing
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra


class _MonomialTable:
    """A linear map read through its table of basis monomial images, each
    computed by ``_expand`` when first asked (write-once)."""

    def image(self, key) -> dict:
        """The image of the basis monomial ``key`` as a {monomial: nonzero
        coefficient} map; empty when |key| + degree > top."""
        table = self._table
        if key not in table:
            alg = self.algebra
            table[key] = ({} if alg.key_degree(key) + self.degree > alg.top
                          else self._expand(key))
        return table[key]

    def _extend(self, terms: dict) -> dict:
        """The linear extension of ``image`` to a {monomial: coeff} map."""
        image = self.image
        out: dict = {}
        for key, coeff in terms.items():
            for k, c in image(key).items():
                t = c if coeff == 1 else coeff * c
                out[k] = out[k] + t if k in out else t
        return {k: c for k, c in out.items() if c}

    def _apply(self, elem: Element) -> Element:
        if elem.algebra is not self.algebra:
            raise StructureError("element belongs to a different algebra")
        return Element._trusted(self.algebra, elem.degree + self.degree,
                                self._extend(elem.terms))

    def _basis_matrix(self, p: int) -> linalg.Matrix:
        """Matrix out of degree p, cached: one sparse row per target basis
        monomial, filled from the table."""
        if p not in self._matrices:
            alg = self.algebra
            q = p + self.degree
            rows: linalg.Matrix = [{} for _ in range(alg.dim(q))]
            if rows:
                index = alg.basis_index(q)
                for j, key in enumerate(alg.basis(p)):
                    for k, c in self.image(key).items():
                        rows[index[k]][j] = c
            self._matrices[p] = rows
        return self._matrices[p]

    def __call__(self, elem: Element) -> Element:
        return self.apply(elem)


class Derivation(_MonomialTable):
    """Graded derivation of fixed degree, determined by generator images.

    Missing generators map to zero; every derivation vanishes on scalars.
    Images are fixed at construction; monomial images and per-degree
    matrices are computed when first asked and cached (both write-once).
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
        self._support = sum(1 << i for i in self.images)
        self._matrices: dict[int, linalg.Matrix] = {}
        self._table: dict = {}

    def image_of(self, i: int) -> Element:
        gen = self.algebra.generators[i]
        return self.images.get(i, self.algebra.zero(gen.degree + self.degree))

    def apply(self, elem: Element) -> Element:
        """The linear extension of the monomial table (``image``)."""
        return self._apply(elem)

    def _expand(self, key) -> dict:
        """D(left g right) = (-1)^{|D||left|} left D(g) right, summed over
        the occurrences in the basis monomial ``key`` of the generators g
        that carry an image, as a {monomial: nonzero coefficient} map."""
        merge = self.algebra.merge_keys
        odd = self.degree % 2
        terms: dict = {}
        for gi, left, right, left_deg in self.algebra.key_splits(
                key, self._support):
            flip = -1 if odd and left_deg % 2 else 1
            for k, c in self.images[gi].terms.items():
                mid, s1 = merge(left, k)
                if not s1:
                    continue
                out, s2 = merge(mid, right)
                if s2:
                    term = c if s1 * s2 == flip else -c
                    terms[out] = terms[out] + term if out in terms else term
        return {k: c for k, c in terms.items() if c}

    @functools.cached_property
    def leibniz_failure(self) -> Element | None:
        """The first basis monomial, in degree order, on which the graded
        Leibniz rule fails, or None; computed once (write-once).

        It checks D(1) = 0 and, for each basis monomial w = g m with g its
        first generator (sign +1), D(w) = Dg m + (-1)^{|D||g|} g Dm.  The
        Leibniz extension E of D's generator images (read through ``image``)
        obeys the same recursion, so D = E by induction on the factors of w.
        A w with |w| + max(|D|, 0) > top is skipped: both sides vanish
        there, while merged keys are not truncated.
        """
        alg = self.algebra
        merge = alg.merge_keys
        image = self.image
        gen_keys = [k for g in alg.gens() for k in g.terms]
        (unit,) = alg.basis(0)
        if image(unit):
            return alg.unit()
        for q in range(1, alg.top + 1 - max(self.degree, 0)):
            for w in alg.basis(q):
                gi, _, m, _ = alg.key_splits(w)[0]
                g = gen_keys[gi]
                sign = -1 if (alg.degree_of(gi) * self.degree) % 2 else 1
                rhs: dict = {}
                for products, flip in (
                        (((merge(k, m), c) for k, c in image(g).items()), 1),
                        (((merge(g, k), c) for k, c in image(m).items()), sign)):
                    for (key, s), c in products:        # Dg m, then g Dm
                        if s:
                            t = c if s == flip else -c
                            rhs[key] = rhs[key] + t if key in rhs else t
                if image(w) != {k: c for k, c in rhs.items() if c}:
                    return Element._trusted(alg, q, {w: 1})
        return None

    def matrix(self, p: int) -> linalg.Matrix:
        """Matrix of the derivation from degree p to degree p + |f|."""
        return self._basis_matrix(p)

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())

    def __repr__(self) -> str:
        label = self.name or "derivation"
        return f"<{label}: degree {self.degree:+d} on {len(self.algebra)} generators>"


def word_disagreements(alg: GradedAlgebra,
                       identities) -> list[Element | None]:
    """For each identity (lhs, rhs) between two sums of operator words, the
    first basis monomial, in degree order, where they differ, or None, all
    in one pass.  A word is a tuple of operators on ``alg``, composed right
    to left ((d, iota) is d after iota) on their tables.  An empty side is
    zero."""
    if any(op.algebra is not alg for sides in identities
           for word in (*sides[0], *sides[1]) for op in word):
        raise StructureError("operator acts on a different algebra")
    # lhs - rhs as (sign, first table, middle operators in turn, last table)
    signed = [[(sign, word[-1].image if word[1:] else None, word[-2:0:-1],
                word[0].image)
               for words, sign in ((lhs, 1), (rhs, -1)) for word in words]
              for lhs, rhs in identities]
    found: list[Element | None] = [None] * len(identities)
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            for j, words in enumerate(signed):
                if found[j] is None and _words_differ(words, key):
                    found[j] = Element._trusted(alg, p, {key: 1})
            if all(f is not None for f in found):
                return found
    return found


def _words_differ(signed_words, key) -> bool:
    """Whether the signed words sum to nonzero on one basis monomial."""
    total: dict = {}
    for sign, first, middle, last in signed_words:
        vec = first(key) if first else {key: 1}
        for op in middle:
            vec = op._extend(vec)
        for k, c in vec.items():
            c = c if sign == 1 else -c
            for k2, c2 in last(k).items():
                t = c2 if c == 1 else c * c2
                total[k2] = total[k2] + t if k2 in total else t
    return any(total.values())


def derivation(algebra: GradedAlgebra, degree: int,
               images: dict[int, Element], name: str = "") -> Derivation:
    """The one live derivation of this degree and these nonzero generator
    images, from a weak-valued table on the algebra (first name kept)."""
    der = Derivation(algebra, degree, images, name=name)
    key = (degree, frozenset((i, frozenset(img.terms.items()))
                             for i, img in der.images.items()))
    return algebra._derivations.setdefault(key, der)


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
    """{f, g} = f g - (-1)^{|f||g|} g f, returned as a shared derivation.

    Its images are the composition on generators, which fix the composition
    everywhere once f and g pass the Leibniz check.  An operand that fails
    raises with its first failing monomial.
    """
    bad = _first_leibniz_failure(f, g)
    if bad is not None:
        raise StructureError(
            f"supercommutator extension disagrees with composition on {bad!r}")
    sign = -1 if (f.degree * g.degree) % 2 else 1
    images = {i: f.apply(g.apply(x)) - g.apply(f.apply(x)).scale(sign)
              for i, x in enumerate(f.algebra.gens())}
    name = f"{{{f.name or 'f'},{g.name or 'g'}}}"
    return derivation(f.algebra, f.degree + g.degree, images, name=name)


def _first_leibniz_failure(f: Derivation, g: Derivation) -> Element | None:
    """The first Leibniz failure of f, else of g: the premise for deciding
    {f, g} on generators.  A negative degree derivation does not preserve a
    truncation, so opposite degree signs are refused there."""
    if f.algebra is not g.algebra:
        raise StructureError("derivations act on different algebras")
    if f.degree * g.degree < 0 and f.algebra.truncated:
        raise StructureError("derivations of opposite degree signs on a "
                             "truncated algebra are not decided on generators")
    return f.leibniz_failure or g.leibniz_failure


class CochainComplex:
    """What DGAs and subcomplexes share, through ``dim``, ``d_matrix``,
    ``element`` and ``coords(p, elem)``."""

    @functools.cached_property
    def _factors(self) -> dict:
        return {}

    @functools.cached_property
    def cohomology_store(self) -> tuple[dict, dict]:
        """The computed ``DegreeSlice``s and basis cup products, by key."""
        return {}, {}

    def solve_d(self, p: int, target: linalg.Vector) -> linalg.Vector | None:
        """Coordinates x in degree p with d x = target (degree p+1), or None,
        as ``linalg.solve`` gives them; d_p is factored on the first solve in
        degree p and the factor kept with the complex (``linalg.factor``)."""
        if p not in self._factors:
            self._factors[p] = linalg.factor(self.d_matrix(p), self.dim(p))
        return linalg.solve_factored(self._factors[p], target)

    def wedge_coords(self, p: int, v, q: int, w) -> linalg.Vector:
        """Coordinates of the product of two elements given by coordinates."""
        return self.coords(p + q, self.element(p, v).wedge(self.element(q, w)))

    def cohomology(self) -> CohomologyRing:
        """A view that reads and fills ``cohomology_store``."""
        return CohomologyRing(self)


class DGA(CochainComplex):
    """Free graded-commutative algebra with a degree +1 differential."""

    def __init__(self, algebra: GradedAlgebra, differential: Derivation):
        if differential.algebra is not algebra:
            raise StructureError("differential acts on a different algebra")
        if differential.degree != 1:
            raise StructureError("differential must have degree +1")
        self.algebra = algebra
        self.d = differential
        self.kernels = weakref.WeakKeyDictionary()  # eta.kernel_subcomplex

    @property
    def top(self) -> int:
        return self.algebra.top

    def dim(self, p: int) -> int:
        return self.algebra.dim(p)

    def d_matrix(self, p: int) -> linalg.Matrix:
        return self.d.matrix(p)

    def element(self, p: int, coords) -> Element:
        return self.algebra.element(p, coords)

    def coords(self, p: int, elem: Element) -> linalg.Vector:
        if elem.is_zero():
            return {}
        if elem.degree != p:
            raise StructureError(f"element has degree {elem.degree}, expected {p}")
        return self.algebra.coords(elem)

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.algebra.generators)
        return f"<DGA on ({names})>"


def supercommutes_with_d(dga: DGA, op: Derivation) -> bool:
    """Whether {d, op} vanishes on every basis monomial: False when d or op
    fails the Leibniz check, else decided on generators, since {d, op} is
    then a derivation.  With op = d it is whether d squares to zero."""
    if _first_leibniz_failure(dga.d, op) is not None:
        return False
    sign = -1 if (op.degree % 2) else 1
    d = dga.d
    return all(d(op(x)) == op(d(x)).scale(sign) for x in dga.algebra.gens())


class Subcomplex(CochainComplex):
    """Degreewise subspace of a DGA, closed under d.

    Each degree is a ``linalg.Span`` over the parent monomial basis: equal
    spans have equal bases (its rows), and coordinates are pivot entries.
    """

    def __init__(self, parent: DGA, spans: dict[int, linalg.Matrix]):
        self.parent = parent
        self._spans = defaultdict(linalg.Span, {
            p: linalg.Span(spans.get(p, [])) for p in range(parent.top + 1)})
        self._d_matrices: dict[int, linalg.Matrix] = {}
        for p in range(parent.top + 1):
            self.d_matrix(p)  # raises on a closure failure

    @classmethod
    def kernel_of(cls, parent: DGA, matrix) -> Subcomplex:
        """The subcomplex cut out by a per-degree matrix on the parent: its
        degree-p part is the kernel of ``matrix(p)`` for p = 0..top.  Raises
        when that is not closed under d."""
        return cls(parent, {p: linalg.kernel_basis(matrix(p), parent.dim(p))
                            for p in range(parent.top + 1)})

    @property
    def top(self) -> int:
        return self.parent.top

    def span(self, p: int) -> linalg.Span:
        """The degree-p part, in parent coordinates (zero off 0..top)."""
        return self._spans[p]

    def dim(self, p: int) -> int:
        return len(self.span(p))

    def basis_vectors(self, p: int) -> linalg.Matrix:
        """Canonical basis, one row per generator, in parent coordinates."""
        return self.span(p).rows

    def basis_elements(self, p: int) -> list[Element]:
        return [self.parent.element(p, row) for row in self.basis_vectors(p)]

    def coords(self, p: int, elem: Element) -> linalg.Vector:
        """Coordinates in the canonical basis; raises if not a member."""
        span = self.span(p)
        vec = self.parent.coords(p, elem)
        if span.residual(vec):
            raise StructureError(f"vector is not in the degree {p} subspace")
        return span.coords(vec)

    def parent_coords(self, p: int, coords: linalg.Vector) -> linalg.Vector:
        return self.span(p).vector(coords)

    def element(self, p: int, coords: linalg.Vector) -> Element:
        return self.parent.element(p, self.parent_coords(p, coords))

    def d_matrix(self, p: int) -> linalg.Matrix:
        if p not in self._d_matrices:
            # the parent's d by columns: the image of a row is a combination
            columns = linalg.transpose(self.parent.d_matrix(p),
                                       self.parent.dim(p))
            target = self.span(p + 1)
            cols = []
            for row in self.basis_vectors(p):
                img = linalg.combine(row, columns)
                if img not in target:
                    elem = self.parent.element(p, row)
                    raise StructureError(
                        f"subspace is not closed under d in degree {p}: "
                        f"d({elem!r}) leaves the subspace")
                cols.append(target.coords(img))
            self._d_matrices[p] = linalg.transpose(cols, self.dim(p + 1))
        return self._d_matrices[p]

    def betti(self) -> tuple[int, ...]:
        return self.cohomology().betti()

    def __repr__(self) -> str:
        dims = ",".join(str(self.dim(p)) for p in range(self.top + 1))
        return f"<Subcomplex dims ({dims})>"


def embed_element(elem: Element, target: GradedAlgebra) -> Element:
    """Re-express an element in an algebra containing generators of the
    same names (used for tensor factors)."""
    src = elem.algebra
    out = target.zero(elem.degree)
    for key, coeff in elem.terms.items():
        names = [src.generators[i].name for i in src.key_indices(key)]
        out = out + target.monomial(*names, coeff=coeff)
    return out


def tensor_product(a: DGA, b: DGA) -> DGA:
    """Free graded-commutative product with the Koszul-signed differential
    d(x y) = dx y + (-1)^{|x|} x dy."""
    names_a = {g.name for g in a.algebra.generators}
    names_b = {g.name for g in b.algebra.generators}
    clash = names_a & names_b
    if clash:
        raise StructureError(f"generator name collision: {sorted(clash)}")
    gens = a.algebra.generators + b.algebra.generators
    even = any(g.degree % 2 == 0 for g in gens)
    algebra = GradedAlgebra(gens, max_degree=a.top + b.top if even else None)
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


class AlgebraMap(_MonomialTable):
    """Degree-preserving algebra endomorphism given by generator images; a
    basis monomial's image is the product of its generators' images."""

    degree = 0

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
        self._table: dict = {}

    def apply(self, elem: Element) -> Element:
        return self._apply(elem)

    def _expand(self, key) -> dict:
        """phi(g m) = phi(g) phi(m), with g the first generator of the
        basis monomial ``key`` and phi(m) read from the table."""
        alg = self.algebra
        if not key:
            return {key: 1}
        gi, _, rest, _ = alg.key_splits(key)[0]
        tail = Element._trusted(alg, alg.key_degree(rest), self.image(rest))
        return self.images[gi].wedge(tail).terms

    def matrix(self, p: int) -> linalg.Matrix:
        return self._basis_matrix(p)

    def is_automorphism(self) -> bool:
        return all(linalg.rank(self.matrix(p)) == self.algebra.dim(p)
                   for p in range(1, self.algebra.top + 1))

    def has_order(self, m: int) -> bool:
        if m < 1:
            return False
        return all(linalg.mat_pow(self.matrix(p), m)
                   == linalg.identity(self.algebra.dim(p))
                   for p in range(1, self.algebra.top + 1))

    def commutes_with(self, der: Derivation) -> bool:
        """Whether phi d = d phi on every basis monomial."""
        return word_disagreements(self.algebra, [([(self, der)],
                                                  [(der, self)])])[0] is None


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
    return Subcomplex.kernel_of(dga, lambda p: linalg.mat_sub(
        phi.matrix(p), linalg.identity(dga.dim(p))))
