"""Differentials, graded derivations, subcomplexes and algebra maps.

A derivation is determined by its generator images, fixed at construction,
and its table of basis monomial images (``image``) is their graded Leibniz
extension; an algebra map's table multiplies them.  ``derivation`` shares
one operator per (algebra, degree, generator images): iota_xi and rho_eta
are one object; a direct ``Derivation`` is never shared.  The differential
of a DGA is a degree +1 derivation.  Identities between operators are
decided on generators: a supercommutator of derivations is a derivation
(building one, d squared, {d, op} = 0), and phi d - d phi is a
phi-derivation (``AlgebraMap.commutes_with``).  Each verdict has one name
(d^2 = 0 is ``supercommutes_with_d(dga, dga.d)``).  The one per-monomial
pass, ``Derivation.leibniz_failure``, which the report records, tests the
tables themselves.  d_eta = L_xi needs no pass: when eta is the dual of
xi, ``derivation`` hands out one operator for both.  A kernel subcomplex
is ``Subcomplex.kernel_of``, on a DGA or inside a subcomplex (Omega_1 in
Omega_eta), except the kernel of an operator that vanishes on every basis
monomial, which is the DGA itself (``eta.kernel_subcomplex``), and the
complexes ``eta`` builds on the fibre, the monomials without e^k, when xi
is a multiple of X_k (``Subcomplex(parent, spans)`` on rows it reduced).
A DGA is its own ``parent``, with identity ``parent_coords``.  A complex
owns what its cohomology has computed; ``cohomology()`` is a view of that
store, and the complex keeps no reference to a view.  ``DGA.extend`` is
the one way to adjoin generators (a Hirsch extension, or the circle of a
mapping torus): the new DGA keeps every coordinate, d's computed table and
columns, and the cohomology of the degrees below the new generators.

On bitmask keys (every generator of degree 1, as in a CE algebra) the
tables read each sign off the key.  Replacing generator i of the monomial
``key`` by a term k of its image gives rest | k, rest = key ^ bit_i (zero
when rest & k), with sign

    (-1)^(popcount(key & (bit_i - 1))
          + sum_{a in k} popcount(rest & (bit_a - 1)))

for a derivation of any degree: the first count moves g_i to the front,
where D acts with no sign, and the second sorts k rest.  Index-tuple keys
(generators of degree >= 2, as in minimal models) are split and merged
instead (``key_splits``, ``merge_keys``); that path is the tested
reference for the bitmask one.

Coordinates are ``linalg`` sparse vectors, and a matrix is stored once, by
columns: an operator keeps only its table, from which ``columns(p)`` reads
one {target index: coefficient} column per source basis monomial, and a
complex keeps d out of each degree by columns (``d_columns``).  Rows exist
only for an elimination: ``matrix`` and ``d_matrix`` transpose the columns
and keep nothing.
"""

from __future__ import annotations

import functools
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

    def columns(self, p: int, start: int = 0) -> linalg.Matrix:
        """Degree p read off the table, by columns: one {target index:
        nonzero coefficient} per source basis monomial from the ``start``-th
        on, in basis order.  Nothing is kept; ``matrix`` is the transpose."""
        index, image = self.algebra.basis_index(p + self.degree), self.image
        return [{index[k]: c for k, c in image(key).items()}
                for key in self.algebra.basis(p)[start:]]

    def __call__(self, elem: Element) -> Element:
        return self.apply(elem)


class Derivation(_MonomialTable):
    """Graded derivation of fixed degree, determined by generator images.

    Missing generators map to zero; every derivation vanishes on scalars.
    Images are fixed at construction; monomial images are computed when
    first asked and kept (write-once), and they are the one store: a
    matrix is read off them when asked for, and not kept.
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
        # on bitmask keys, each generator bit's image terms with the masks
        # their signs are read off (``_expand``)
        self._bit_terms = [(1 << i, _signed_terms(1 << i, img.terms))
                           for i, img in self.images.items()
                           ] if algebra.bitmask else None
        self._table: dict = {}

    def extend(self, algebra: GradedAlgebra,
               images: dict[int, Element]) -> Derivation:
        """This derivation on ``algebra``, an extension of its own
        (``GradedAlgebra.extend``), with ``images`` for new generators
        (elements of either algebra).  An old monomial's image does not
        change, so the table carries over unless the keys change encoding."""
        old = self.algebra
        if any(i < len(old) for i in images):
            raise StructureError("an extension gives images to new "
                                 "generators only")
        der = Derivation(algebra, self.degree,
                         {i: algebra.lift(img) for i, img in
                          (*self.images.items(), *images.items())},
                         name=self.name)
        if algebra.bitmask == old.bitmask:
            der._table.update(self._table)
        return der

    def apply(self, elem: Element) -> Element:
        """The linear extension of the monomial table (``image``)."""
        return self._apply(elem)

    def _expand(self, key) -> dict:
        """D(left g right) = (-1)^{|D||left|} left D(g) right, summed over
        the occurrences in the basis monomial ``key`` of the generators g
        that carry an image, as a {monomial: nonzero coefficient} map.

        On bitmask keys a term k of D(g) gives ``rest | k`` (zero when they
        meet), rest = key ^ g, with the sign of the module docstring's rule,
        read off the mask ``_signed_terms`` stored with k; index tuples
        are split and merged (``key_splits``, ``merge_keys``)."""
        terms: dict = {}
        if self._bit_terms is not None:
            for bit, gen_terms in self._bit_terms:
                if key & bit:
                    rest = key ^ bit
                    for k, mask, c in gen_terms:
                        if not rest & k:
                            out = rest | k
                            t = -c if (rest & mask).bit_count() & 1 else c
                            terms[out] = terms[out] + t if out in terms else t
            return {k: c for k, c in terms.items() if c}
        merge = self.algebra.merge_keys
        odd = self.degree % 2
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

        On bitmask keys g = w & -w and m = w ^ g; a term k of Dg gives
        m | k with the module docstring's sign (g is the lowest bit, so
        nothing of w sits left of it), and a term k of Dm gives g | k with
        sign (-1)^(popcount(k & (g - 1)) + |D|).  Index tuples are split
        and merged (``key_splits``, ``merge_keys``).
        """
        alg = self.algebra
        image = self.image
        (unit,) = alg.basis(0)
        if image(unit):
            return alg.unit()
        rhs = self._leibniz_bits() if alg.bitmask else self._leibniz_keys()
        for q in range(1, alg.top + 1 - max(self.degree, 0)):
            for w in alg.basis(q):
                if image(w) != rhs(w):
                    return Element._trusted(alg, q, {w: 1})
        return None

    def _leibniz_bits(self):
        """w -> Dg m + (-1)^{|D|} g Dm on bitmask keys, g = w & -w, with
        Dg read once through ``image`` and Dm read through it per w."""
        image, odd = self.image, self.degree % 2
        gen_terms = {1 << i: _signed_terms(1 << i, image(1 << i))
                     for i in range(len(self.algebra))}

        def rhs(w):
            g = w & -w
            m, below = w ^ g, g - 1
            out: dict = {}
            for k, mask, c in gen_terms[g]:                     # Dg m
                if not m & k:
                    key = m | k
                    t = -c if (m & mask).bit_count() & 1 else c
                    out[key] = out[key] + t if key in out else t
            for k, c in image(m).items():                       # g Dm
                if not g & k:
                    key = g | k
                    t = -c if ((k & below).bit_count() + odd) & 1 else c
                    out[key] = out[key] + t if key in out else t
            return {k: c for k, c in out.items() if c}
        return rhs

    def _leibniz_keys(self):
        """w -> Dg m + (-1)^{|D||g|} g Dm on index-tuple keys, g the first
        generator of w, by ``key_splits`` and ``merge_keys``."""
        alg = self.algebra
        merge, image = alg.merge_keys, self.image
        gen_keys = [k for g in alg.gens() for k in g.terms]

        def rhs(w):
            gi, _, m, _ = alg.key_splits(w)[0]
            g = gen_keys[gi]
            sign = -1 if (alg.degree_of(gi) * self.degree) % 2 else 1
            out: dict = {}
            for products, flip in (
                    (((merge(k, m), c) for k, c in image(g).items()), 1),
                    (((merge(g, k), c) for k, c in image(m).items()), sign)):
                for (key, s), c in products:        # Dg m, then g Dm
                    if s:
                        t = c if s == flip else -c
                        out[key] = out[key] + t if key in out else t
            return {k: c for k, c in out.items() if c}
        return rhs

    def matrix(self, p: int) -> linalg.Matrix:
        """Matrix of the derivation from degree p to degree p + |f|, by
        rows, for an elimination: the transpose of ``columns(p)``."""
        return linalg.transpose(self.columns(p),
                                self.algebra.dim(p + self.degree))

    def __repr__(self) -> str:
        label = self.name or "derivation"
        return f"<{label}: degree {self.degree:+d} on {len(self.algebra)} generators>"


def _signed_terms(bit: int, terms: dict) -> list[tuple[int, int, object]]:
    """The terms of a generator image on bitmask keys as (k, mask,
    coefficient), ``bit`` the generator's: replacing the generator by k in
    a monomial key gives rest | k, rest = key ^ bit, with the sign
    (-1)^popcount(rest & mask).  The mask is (bit - 1) xor each (bit_a - 1)
    for a in k, since popcount parities add over xor."""
    out = []
    for k, c in terms.items():
        mask, left = bit - 1, k
        while left:
            low = left & -left
            mask ^= low - 1
            left ^= low
        out.append((k, mask, c))
    return out


def derivation(algebra: GradedAlgebra, degree: int,
               images: dict[int, Element], name: str = "") -> Derivation:
    """The one live derivation of this degree and these nonzero generator
    images, from a weak-valued table on the algebra (first name kept)."""
    der = Derivation(algebra, degree, images, name=name)
    key = (degree, frozenset((i, frozenset(img.terms.items()))
                             for i, img in der.images.items()))
    return algebra._derivations.setdefault(key, der)


def supercommutator(f: Derivation, g: Derivation) -> Derivation:
    """{f, g} = f g - (-1)^{|f||g|} g f, returned as a shared derivation.

    A supercommutator of derivations is a derivation, so its images on
    generators, the composition there, fix it everywhere.
    """
    _require_generators_decide(f, g)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    images = {i: f.apply(g.apply(x)) - g.apply(f.apply(x)).scale(sign)
              for i, x in enumerate(f.algebra.gens())}
    name = f"{{{f.name or 'f'},{g.name or 'g'}}}"
    return derivation(f.algebra, f.degree + g.degree, images, name=name)


def _require_generators_decide(f: Derivation, g: Derivation) -> None:
    """Raise unless {f, g} is decided on generators: both act on one
    algebra, and a negative degree derivation does not preserve a
    truncation, so opposite degree signs are refused there."""
    if f.algebra is not g.algebra:
        raise StructureError("derivations act on different algebras")
    if f.degree * g.degree < 0 and f.algebra.truncated:
        raise StructureError("derivations of opposite degree signs on a "
                             "truncated algebra are not decided on generators")


class CochainComplex:
    """What DGAs and subcomplexes share, through ``dim``, ``d_columns``,
    ``element``, ``coords(p, elem)`` and ``wedge_coords``, the coordinates
    of a product of two elements given by coordinates."""

    @functools.cached_property
    def _factors(self) -> dict:
        return {}

    @functools.cached_property
    def _columns(self) -> dict:
        return {}

    def d_columns(self, p: int) -> linalg.Matrix:
        """d out of degree p by columns, one {index: nonzero coefficient} in
        degree p + 1 per basis vector of degree p: the complex's one store
        of d, filled on first use (``_d_columns``) and kept."""
        if p not in self._columns:
            self._columns[p] = self._d_columns(p)
        return self._columns[p]

    def d_matrix(self, p: int) -> linalg.Matrix:
        """d out of degree p by rows, for an elimination: the transpose of
        ``d_columns(p)``, not kept."""
        return linalg.transpose(self.d_columns(p), self.dim(p + 1))

    @functools.cached_property
    def cohomology_store(self) -> tuple[dict, dict]:
        """The computed ``DegreeSlice``s and basis cup products, by key."""
        return {}, {}

    def solve_d(self, p: int, target: linalg.Vector) -> linalg.Vector | None:
        """Coordinates x in degree p with d x = target (degree p+1), free
        variables zero, or None; d_p is factored on the first solve in
        degree p and the factor kept with the complex (``linalg.factor``)."""
        if p not in self._factors:
            self._factors[p] = linalg.factor(self.d_matrix(p), self.dim(p))
        return linalg.solve_factored(self._factors[p], target)

    def cohomology(self) -> CohomologyRing:
        """A view that reads and fills ``cohomology_store``."""
        return CohomologyRing(self)

    def betti(self) -> tuple[int, ...]:
        return self.cohomology().betti()


class DGA(CochainComplex):
    """Free graded-commutative algebra with a degree +1 differential."""

    def __init__(self, algebra: GradedAlgebra, differential: Derivation):
        if differential.algebra is not algebra:
            raise StructureError("differential acts on a different algebra")
        if differential.degree != 1:
            raise StructureError("differential must have degree +1")
        self.algebra = algebra
        self.d = differential

    @property
    def top(self) -> int:
        return self.algebra.top

    def dim(self, p: int) -> int:
        return self.algebra.dim(p)

    def _d_columns(self, p: int) -> linalg.Matrix:
        return self.d.columns(p)

    def element(self, p: int, coords) -> Element:
        return self.algebra.element(p, coords)

    def coords(self, p: int, elem: Element) -> linalg.Vector:
        if elem.is_zero():
            return {}
        if elem.degree != p:
            raise StructureError(f"element has degree {elem.degree}, expected {p}")
        return self.algebra.coords(elem)

    def wedge_coords(self, p: int, v, q: int, w) -> linalg.Vector:
        """Coordinates of the product, read on basis keys (``merge_keys``)
        with no ``Element`` in between."""
        alg = self.algebra
        if p + q > alg.top:
            return {}
        left, right = alg.basis(p), alg.basis(q)
        index, merge = alg.basis_index(p + q), alg.merge_keys
        out: linalg.Vector = {}
        for i, a in v.items():
            ka = left[i]
            for j, b in w.items():
                key, sign = merge(ka, right[j])
                if sign:
                    k, t = index[key], a * b if sign == 1 else -a * b
                    out[k] = out[k] + t if k in out else t
        return {k: c for k, c in out.items() if c}

    def extend(self, generators: list[Generator],
               images: dict[str, Element]) -> DGA:
        """This DGA with ``generators`` appended, d of each one named in
        ``images`` (elements of this DGA; a Hirsch extension when they are
        cocycles) and the rest closed.  Coordinates keep their meaning
        (``GradedAlgebra.extend``) and d what it has computed: its table
        (``Derivation.extend``) and, copied, each stored degree of its
        columns, grown by the new monomials' columns (an old column sits on
        old coordinates, even where the keys change encoding and the table
        does not carry over).  The cohomology of each degree below the least
        new degree carries over: no cochain there changes, nor d into it,
        nor d out of it."""
        algebra = self.algebra.extend(generators)
        d = self.d.extend(algebra, {algebra.index(name): img
                                    for name, img in images.items()})
        dga = DGA(algebra, d)
        dga._columns.update((p, cols + d.columns(p, len(cols)))
                            for p, cols in self._columns.items())
        low = min(g.degree for g in generators)
        dga.cohomology_store[0].update(
            (p, s) for p, s in self.cohomology_store[0].items() if p < low)
        return dga

    @property
    def parent(self) -> DGA:
        """The DGA as the whole of itself (a property: no reference cycle)."""
        return self

    def parent_coords(self, p: int, coords: linalg.Vector) -> linalg.Vector:
        return coords

    def basis_columns(self, p: int, columns: linalg.Matrix) -> linalg.Matrix:
        return columns

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.algebra.generators)
        return f"<DGA on ({names})>"


def supercommutes_with_d(dga: DGA, op: Derivation) -> bool:
    """Whether {d, op} vanishes, decided on generators, since {d, op} is a
    derivation.  With op = d it is whether d squares to zero."""
    _require_generators_decide(dga.d, op)
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
        self._spans = defaultdict(linalg.Span)
        for p in range(parent.top + 1):
            self._spans[p] = linalg.Span(spans.get(p, []))
        for p in range(parent.top + 1):
            self.d_columns(p)  # raises on a closure failure

    @classmethod
    def kernel_of(cls, domain: CochainComplex, columns,
                  degree: int) -> Subcomplex:
        """The kernel on ``domain``, a DGA or a subcomplex, of an operator
        of this degree given out of each parent degree p by ``columns(p)``,
        as a subcomplex of the parent; raises when it is not d-closed."""
        parent, spans = domain.parent, {}
        for p in range(parent.top + 1):
            images = domain.basis_columns(p, columns(p))
            rows = linalg.transpose(images, parent.dim(p + degree))
            spans[p] = [domain.parent_coords(p, v) for v in
                        linalg.kernel_span(rows, len(images)).rows]
        return cls(parent, spans)

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

    def coords(self, p: int, elem: Element) -> linalg.Vector:
        """Coordinates in the canonical basis; raises if not a member."""
        return self._member_coords(p, self.parent.coords(p, elem))

    def wedge_coords(self, p: int, v, q: int, w) -> linalg.Vector:
        """The product, formed in the parent; raises if it leaves the
        subcomplex."""
        parent_coords = self.parent_coords
        return self._member_coords(p + q, self.parent.wedge_coords(
            p, parent_coords(p, v), q, parent_coords(q, w)))

    def _member_coords(self, p: int, vec: linalg.Vector) -> linalg.Vector:
        span = self.span(p)
        if span.residual(vec):
            raise StructureError(f"vector is not in the degree {p} subspace")
        return span.coords(vec)

    def parent_coords(self, p: int, coords: linalg.Vector) -> linalg.Vector:
        return self.span(p).vector(coords)

    def element(self, p: int, coords: linalg.Vector) -> Element:
        return self.parent.element(p, self.parent_coords(p, coords))

    def basis_columns(self, p: int, columns: linalg.Matrix) -> linalg.Matrix:
        return [linalg.combine(row, columns) for row in self.basis_vectors(p)]

    def _d_columns(self, p: int) -> linalg.Matrix:
        """d of each basis vector (``basis_columns``), in coordinates on
        degree p + 1's span, which must hold it."""
        target = self.span(p + 1)
        images = self.basis_columns(p, self.parent.d_columns(p))
        for j, img in enumerate(images):
            if img not in target:
                raise StructureError(
                    f"subspace is not closed under d in degree {p}: "
                    f"d({self.element(p, {j: 1})!r}) leaves the subspace")
        return [target.coords(img) for img in images]

    def __repr__(self) -> str:
        dims = ",".join(str(self.dim(p)) for p in range(self.top + 1))
        return f"<Subcomplex dims ({dims})>"


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
        self._table: dict = {}

    def apply(self, elem: Element) -> Element:
        return self._apply(elem)

    def _expand(self, key) -> dict:
        """phi(g m) = phi(g) phi(m), with g the first generator of the
        basis monomial ``key`` and phi(m) read from the table."""
        alg = self.algebra
        if not key:
            return {key: 1}
        if alg.bitmask:
            low = key & -key
            gi, rest = low.bit_length() - 1, key ^ low
        else:
            gi, rest = key[0], key[1:]
        tail = Element._trusted(alg, alg.key_degree(rest), self.image(rest))
        return self.images[gi].wedge(tail).terms

    def has_order(self, m: int) -> bool:
        """Whether phi^m is the identity, decided on generators: phi is
        iterated on them up to the first power that fixes them all, at most
        m times, and that power must divide m.  An endomorphism with
        phi^m = id is invertible, so this also decides that phi is an
        automorphism."""
        if m < 1:
            return False
        gens = self.algebra.gens()
        power, j = [self(x) for x in gens], 1
        while power != gens and j < m:
            power, j = [self(x) for x in power], j + 1
        return power == gens and m % j == 0

    def commutes_with(self, der: Derivation) -> bool:
        """Whether phi der = der phi, decided on generators: both sides are
        phi-derivations, D(x y) = D(x) phi(y) + (-1)^{|der||x|} phi(x) D(y)."""
        return all(self(der(x)) == der(self(x)) for x in self.algebra.gens())


def invariant_subalgebra(dga: DGA, phi: AlgebraMap, order: int) -> Subcomplex:
    """Degreewise fixed subspaces of a finite-order automorphism commuting
    with d, as a subcomplex; phi^order = id makes phi an automorphism."""
    if phi.algebra is not dga.algebra:
        raise StructureError("automorphism acts on a different algebra")
    if not phi.has_order(order):
        raise StructureError(f"map does not have order {order}")
    if not phi.commutes_with(dga.d):
        raise StructureError("automorphism does not commute with d")
    return Subcomplex.kernel_of(dga, lambda p: linalg.mat_sub(
        phi.columns(p), linalg.identity(dga.dim(p))), 0)
