"""Free graded-commutative algebras with exact rational coefficients.

An algebra is generated by named generators of degree >= 1.  Elements are
homogeneous and sparse: a finite map from canonical monomials to nonzero
rationals.  Monomial keys come in two encodings, chosen once per algebra:

* every generator has degree 1 (the Chevalley-Eilenberg case): a monomial is
  an index bitmask, and the wedge sign is an inversion-parity popcount;
* otherwise: a sorted index tuple, odd generators at most once, even
  generators with multiplicity, canonicalized with explicit Koszul signs.

Coefficients are exact rationals in ``linalg``'s one form: an int when
integral, else a Fraction (``linalg.exact``); the constructors below set
it.  Coordinates on the degree-p basis are ``linalg`` sparse vectors
(``{basis index: rational}``, no zeros), which ``element`` and ``coords``
map to monomial keys and back.  Only the public ``Element`` constructor
checks key degrees; keys the algebra made itself are trusted.

Algebras and elements are immutable after construction.  ``extend`` makes a
new algebra with more generators whose bases begin with this one's, so
coordinates on an algebra keep their meaning on its extensions.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from numbers import Rational

from .errors import StructureError
from .linalg import Vector, exact
from .record import Record

Key = int | tuple[int, ...]


class Generator(Record, frozen=True):
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise StructureError(f"generator {self.name!r} must have degree >= 1")


class GradedAlgebra:
    """Free graded-commutative algebra on a fixed generator list.

    ``max_degree`` truncates the algebra: products landing above it are zero.
    It is required when some generator has even degree (the algebra would be
    infinite) and defaults to the sum of generator degrees otherwise.
    """

    def __init__(self, generators: list[Generator] | tuple[Generator, ...],
                 max_degree: int | None = None):
        gens = tuple(generators)
        self._name_index = {g.name: i for i, g in enumerate(gens)}
        if len(self._name_index) != len(gens):
            raise StructureError("generator names must be unique")
        self.generators = gens
        self.max_degree = max_degree
        degrees = [g.degree for g in gens]
        self.bitmask = degrees.count(1) == len(degrees)
        self._odd = tuple(d % 2 for d in degrees)
        full = sum(degrees)
        even = 0 in self._odd
        if even:
            if max_degree is None:
                raise StructureError(
                    "max_degree is required when even-degree generators are present")
            self.top = max_degree
        else:
            self.top = full if max_degree is None else min(full, max_degree)
        self.truncated = even or self.top < full    # nonzero products cut off
        self._basis_cache: dict[int, tuple[Key, ...]] = {}
        self._index_cache: dict[int, dict[Key, int]] = {}
        self._derivations = weakref.WeakValueDictionary()  # cdga.derivation

    # -- generator access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise StructureError(f"unknown generator {name!r}") from None

    def degree_of(self, i: int) -> int:
        return self.generators[i].degree

    def gen(self, name_or_index: str | int) -> "Element":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        if not 0 <= i < len(self.generators):
            raise StructureError(f"generator index {i} out of range")
        key: Key = (1 << i) if self.bitmask else (i,)
        return Element(self, self.generators[i].degree, {key: 1})

    def gens(self) -> list["Element"]:
        return [self.gen(i) for i in range(len(self.generators))]

    # -- monomial keys ------------------------------------------------------

    def key_indices(self, key: Key) -> tuple[int, ...]:
        if self.bitmask:
            return tuple(i for i in range(len(self.generators)) if key >> i & 1)
        return key  # already a sorted tuple

    def key_degree(self, key: Key) -> int:
        if self.bitmask:
            return int(key).bit_count()
        return sum(self.generators[i].degree for i in key)

    def key_str(self, key: Key) -> str:
        idx = self.key_indices(key)
        if not idx:
            return "1"
        return "^".join(self.generators[i].name for i in idx)

    def canonicalize(self, indices) -> tuple[Key, int]:
        """Sort a raw generator-index sequence; return (key, Koszul sign).

        Sign 0 means an odd generator repeats (the monomial is zero).
        """
        seq = list(indices)
        for i in seq:
            if not 0 <= i < len(self.generators):
                raise StructureError(f"generator index {i} out of range")
        sign = 1
        # insertion sort, tracking the Koszul sign of each adjacent swap
        for i in range(1, len(seq)):
            j = i
            while j > 0 and seq[j - 1] > seq[j]:
                da = self.generators[seq[j - 1]].degree
                db = self.generators[seq[j]].degree
                if da * db % 2:
                    sign = -sign
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                j -= 1
        for a, b in itertools.pairwise(seq):
            if a == b and self.generators[a].degree % 2:
                return self._zero_key(), 0
        if self.bitmask:
            mask = 0
            for i in seq:
                mask |= 1 << i
            return mask, sign
        return tuple(seq), sign

    def merge_keys(self, k1: Key, k2: Key) -> tuple[Key, int]:
        """Wedge of two canonical monomials: (key, sign), sign 0 if it dies."""
        if self.bitmask:
            if k1 & k2:
                return 0, 0
            # parity of inversions between the two index sets
            inv = 0
            m2 = k2
            while m2:
                j = (m2 & -m2).bit_length() - 1
                inv ^= (k1 >> (j + 1)).bit_count() & 1
                m2 &= m2 - 1
            return k1 | k2, -1 if inv else 1
        # the inversions are the pairs a in k1 > b in k2, both sorted; an
        # odd generator in both kills the product
        odd = self._odd
        inv = 0
        for a in k1:
            if odd[a]:
                for b in k2:
                    if b >= a:
                        if b == a:
                            return (), 0
                        break
                    inv ^= odd[b]
        return tuple(sorted(k1 + k2)), -1 if inv else 1

    def key_splits(self, key: tuple[int, ...],
                   support: int = -1) -> list[tuple[int, Key, Key, int]]:
        """Each generator occurrence of a canonical index-tuple monomial, in
        order, as (generator index, left sub-key, right sub-key, degree of
        the left).  Bitmask keys are never split: ``cdga`` reads their
        signs off the bits.

        The monomial is left * generator * right with sign +1.  Only the
        generators in the index bitmask ``support`` count as occurrences;
        the left degree counts every generator.
        """
        out = []
        left_deg = 0
        for t, i in enumerate(key):
            if support >> i & 1:
                out.append((i, key[:t], key[t + 1:], left_deg))
            left_deg += self.generators[i].degree
        return out

    def _zero_key(self) -> Key:
        return 0 if self.bitmask else ()

    # -- degreewise bases ---------------------------------------------------

    def dim(self, p: int) -> int:
        return len(self.basis(p))

    def basis(self, p: int) -> tuple[Key, ...]:
        """Ordered monomial basis of degree p: canonical, or for an
        extension (``extend``) its prefix algebra's basis first."""
        if p < 0 or p > self.top:
            return ()
        if p not in self._basis_cache:
            if self.bitmask:
                keys = []
                for combo in itertools.combinations(range(len(self.generators)), p):
                    mask = 0
                    for i in combo:
                        mask |= 1 << i
                    keys.append(mask)
            else:
                keys = [tuple(m) for m in self._multisets(0, p)]
            self._basis_cache[p] = tuple(keys)
        return self._basis_cache[p]

    def extend(self, generators) -> GradedAlgebra:
        """This algebra with ``generators`` after its own and the same
        ``max_degree``.  Each degree's basis is this algebra's, then the
        monomials holding a new generator, so old coordinates keep their
        basis elements; the keys change encoding (a bitmask becomes its
        index tuple, in place) only when the first generator of degree
        above 1 arrives.  Every degree's basis is enumerated here, as the
        new generators' monomials times this algebra's."""
        new = GradedAlgebra(self.generators + tuple(generators),
                            self.max_degree)
        top = new.top
        old = [self.basis(p) for p in range(top + 1)]
        recode = self.bitmask and not new.bitmask
        if recode:
            old = [tuple(map(self.key_indices, keys)) for keys in old]
        join = operator.or_ if new.bitmask else operator.add
        # the new generators' monomials by degree: each generator joins
        # those before it once if odd, any number of times if even
        parts = [[new._zero_key()]] + [[] for _ in range(top)]
        for i in range(len(self), len(new)):
            d = new.degree_of(i)
            one = 1 << i if new.bitmask else (i,)
            for r in (range(d, top + 1) if d % 2 == 0
                      else range(top, d - 1, -1)):
                parts[r] += [join(part, one) for part in parts[r - d]]
        for p in range(top + 1):
            added = tuple([join(m, part) for r in range(1, p + 1)
                           for part in parts[r] for m in old[p - r]])
            new._basis_cache[p] = old[p] + added if added else old[p]
            index = self._index_cache.get(p)
            if index is not None and not recode:
                if added:
                    index = dict(index)
                    index.update(zip(added, itertools.count(len(old[p]))))
                new._index_cache[p] = index
        return new

    def lift(self, elem: "Element") -> "Element":
        """An element of an algebra this one extends (``extend``), as an
        element of this one."""
        src = elem.algebra
        if src is self:
            return elem
        if (self.generators[:len(src)] != src.generators
                or elem.terms and elem.degree > self.top):
            raise StructureError("element of an algebra this one does not "
                                 "extend")
        terms = elem.terms
        if src.bitmask != self.bitmask:
            terms = {src.key_indices(k): c for k, c in terms.items()}
        return Element._trusted(self, elem.degree, terms)

    def _multisets(self, start: int, remaining: int):
        if remaining == 0:
            yield []
            return
        for i in range(start, len(self.generators)):
            d = self.generators[i].degree
            if d > remaining:
                continue
            odd = d % 2 == 1
            tail = self._multisets(i + 1, remaining - d) if odd \
                else self._multisets(i, remaining - d)
            for rest in tail:
                yield [i] + rest

    def basis_index(self, p: int) -> dict[Key, int]:
        if p not in self._index_cache:
            self._index_cache[p] = {k: i for i, k in enumerate(self.basis(p))}
        return self._index_cache[p]

    # -- element constructors -----------------------------------------------

    def zero(self, degree: int = 0) -> "Element":
        return Element(self, degree, {})

    def scalar(self, value) -> "Element":
        value = exact(value)
        if value == 0:
            return self.zero(0)
        return Element(self, 0, {self._zero_key(): value})

    def unit(self) -> "Element":
        return self.scalar(1)

    def monomial(self, *names, coeff=1) -> "Element":
        """Element from a raw generator-name (or index) sequence."""
        idx = [n if isinstance(n, int) else self.index(n) for n in names]
        key, sign = self.canonicalize(idx)
        coeff = exact(coeff) * sign
        degree = sum(self.generators[i].degree for i in idx)
        if coeff == 0 or degree > self.top:
            return self.zero(degree)
        return Element(self, degree, {key: coeff})

    def element(self, p: int, coords: Vector) -> "Element":
        """The element with the given sparse coordinates on ``basis(p)``."""
        keys = self.basis(p)
        return Element._trusted(self, p, {keys[i]: c for i, c in coords.items()})

    def coords(self, elem: "Element") -> Vector:
        """Sparse coordinates on the basis of the element's degree."""
        index = self.basis_index(elem.degree)
        return {index[key]: c for key, c in elem.terms.items()}


class Element:
    """Homogeneous element: degree plus a sparse monomial->coefficient map."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: GradedAlgebra, degree: int, terms: dict):
        self.algebra = algebra
        self.degree = degree
        self.terms = {k: v for k, v in terms.items() if v != 0}
        for key in self.terms:
            if algebra.key_degree(key) != degree:
                raise StructureError(
                    f"monomial {algebra.key_str(key)} has degree "
                    f"{algebra.key_degree(key)}, element claims {degree}")

    @classmethod
    def _trusted(cls, algebra: GradedAlgebra, degree: int,
                 terms: dict) -> "Element":
        """An element from nonzero terms on keys of the given degree that
        the algebra itself made: nothing is filtered or checked."""
        elem = object.__new__(cls)
        elem.algebra, elem.degree, elem.terms = algebra, degree, terms
        return elem

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise StructureError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise StructureError(
                f"cannot add degree {self.degree} to degree {other.degree}")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] + v if k in terms else v
        return Element._trusted(self.algebra, self.degree,
                                {k: v for k, v in terms.items() if v})

    def __neg__(self) -> "Element":
        return Element._trusted(self.algebra, self.degree,
                                {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        c = exact(c)
        if not c:
            return self.algebra.zero(self.degree)
        return Element._trusted(self.algebra, self.degree,
                                {k: c * v for k, v in self.terms.items()})

    def wedge(self, other: "Element") -> "Element":
        """Graded-commutative product with Koszul signs."""
        self._check_compatible(other)
        alg = self.algebra
        degree = self.degree + other.degree
        if degree > alg.top:
            return alg.zero(degree)
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, sign = alg.merge_keys(k1, k2)
                if sign == 0:
                    continue
                c = c1 * c2 * sign
                acc = terms.get(key, 0) + c
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return Element._trusted(alg, degree, terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # as __eq__: every zero is 0, and a scalar is its coefficient
        if self.degree == 0 or not self.terms:
            return hash(sum(self.terms.values()))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        alg = self.algebra
        bits = []
        for key in sorted(self.terms, key=lambda k: alg.basis_index(self.degree)[k]):
            c = self.terms[key]
            mono = alg.key_str(key)
            if mono == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")
