"""Derivations, differentials, cohomology, extensions, group actions.

Expected Betti numbers and induced-map ranks are frozen from independent
oracles: explicit differential matrices rank-computed with sympy, Kunneth
convolutions done by hand, and fixed subspaces via sympy nullspaces.
"""

import math
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cokahler import linalg
from cokahler.cdga import (AlgebraMap, DGA, Derivation, Subcomplex,
                           derivation, invariant_subalgebra, supercommutator,
                           supercommutes_with_d)
from cokahler.cohomology import (CohomologyRing, inclusion_induced_map,
                                 induced_map, kernel_witnesses,
                                 kunneth_convolution)
from cokahler.errors import StructureError
from cokahler.eta import build_d_eta, kernel_subcomplex
from cokahler.exterior import Element, Generator, GradedAlgebra
from cokahler.geometry import LieModel
from cokahler.modelfile import CORPUS_MODELS, load_corpus
from cokahler.report import operator_identity_report
from operator_words import word_disagreements


def ce_algebra(n, prefix="e"):
    return GradedAlgebra([Generator(f"{prefix}{i + 1}", 1) for i in range(n)])


def named_derivation(alg, images, degree, name=""):
    """The derivation with these generator images, keyed by name."""
    return Derivation(alg, degree,
                      {alg.index(key): img for key, img in images.items()},
                      name=name)


def abelian_dga(n, prefix="e"):
    alg = ce_algebra(n, prefix)
    return DGA(alg, Derivation(alg, 1, {}, name="d"))


def heisenberg_dga():
    alg = ce_algebra(3)
    e1, e2, _ = alg.gens()
    return DGA(alg, named_derivation(alg, {"e3": -(e1.wedge(e2))}, 1, name="d"))


def oracle_betti(dga):
    """Betti numbers from explicit d matrices and sympy ranks."""
    dims = [dga.dim(p) for p in range(dga.top + 1)]
    ranks = []
    for p in range(dga.top + 1):
        mat = [linalg.dense(row, dga.dim(p)) for row in dga.d_matrix(p)]
        if not mat or not mat[0]:
            ranks.append(0)
            continue
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in mat])
        ranks.append(sm.rank())
    out = []
    for p in range(dga.top + 1):
        prev_rank = ranks[p - 1] if p > 0 else 0
        out.append(dims[p] - ranks[p] - prev_rank)
    return tuple(out)


# -- derivations --------------------------------------------------------------


def test_extend_derivation_heisenberg_example():
    dga = heisenberg_dga()
    alg = dga.algebra
    assert dga.d.apply(alg.gen("e1")).is_zero()
    assert dga.d.apply(alg.gen("e3")) == alg.monomial("e1", "e2", coeff=-1)
    assert supercommutes_with_d(dga, dga.d)


def test_extension_of_zero_is_zero():
    alg = ce_algebra(3)
    der = Derivation(alg, 1, {})
    for p in range(4):
        for key in alg.basis(p):
            assert der.apply(Element(alg, p, {key: Fraction(1)})).is_zero()


def test_degree_mismatch_rejected():
    alg = ce_algebra(3)
    with pytest.raises(StructureError):
        named_derivation(alg, {"e1": alg.monomial("e1", "e2")}, 2)


def test_derivation_vanishes_on_scalars():
    dga = heisenberg_dga()
    assert dga.d.apply(dga.algebra.scalar(7)).is_zero()


def test_extension_is_unique():
    # two derivations with the same generator images agree everywhere
    dga = heisenberg_dga()
    alg = dga.algebra
    clone = named_derivation(
        alg, {"e3": alg.monomial("e1", "e2", coeff=-1)}, 1)
    for p in range(alg.top + 1):
        assert clone.matrix(p) == dga.d.matrix(p)


def test_leibniz_on_all_basis_products():
    assert heisenberg_dga().d.leibniz_failure is None


def leibniz_all_pairs(der):
    """Reference check: the Leibniz rule on every pair of basis monomials."""
    alg = der.algebra
    for p in range(alg.top + 1):
        for q in range(alg.top + 1 - p):
            for k1 in alg.basis(p):
                a = Element(alg, p, {k1: Fraction(1)})
                for k2 in alg.basis(q):
                    b = Element(alg, q, {k2: Fraction(1)})
                    sign = -1 if (p * der.degree) % 2 else 1
                    rhs = der.apply(a).wedge(b) + a.wedge(der.apply(b)).scale(sign)
                    if der.apply(a.wedge(b)) != rhs:
                        return False
    return True


class Tampered:
    """The table of the operator ``honest``, except that the basis monomial
    ``key`` also maps to ``extra``; ``apply``, ``matrix`` and every check
    read the table, so they all see the fault."""

    def image(self, key):
        out = self.honest.image(key)
        if key != self.key:
            return out
        terms = dict(out)
        for k, c in self.extra.terms.items():
            terms[k] = terms.get(k, 0) + c
        return {k: c for k, c in terms.items() if c}


class WrongOn(Tampered, Derivation):
    """A linear map equal to the derivation ``der`` except that the basis
    monomial ``key`` also maps to ``extra``."""

    def __init__(self, der, key, extra):
        super().__init__(der.algebra, der.degree, der.images)
        self.honest, self.key, self.extra = der, key, extra


class MapWrongOn(Tampered, AlgebraMap):
    """An algebra map's table, wrong on the basis monomial ``key``."""

    def __init__(self, phi, key, extra):
        super().__init__(phi.algebra, dict(enumerate(phi.images)))
        self.honest, self.key, self.extra = phi, key, extra


def rot5_model():
    """R x| R^4, ad X1 rotating (X2, X3) with weight 1 and (X4, X5) with 2."""
    return LieModel(5, {(0, 1): {2: 1}, (0, 2): {1: -1},
                        (0, 3): {4: 2}, (0, 4): {3: -2}},
                    xi=[1, 0, 0, 0, 0], eta=[1, 0, 0, 0, 0])


def graded_algebra():
    """x, z odd and y even, truncated above degree 6; d z = y^2."""
    alg = GradedAlgebra([Generator("x", 1), Generator("y", 2),
                         Generator("z", 3)], max_degree=6)
    return alg, named_derivation(alg, {"z": alg.monomial("y", "y")}, 1)


def test_leibniz_check_rejects_a_fault_on_one_degree_three_monomial():
    d = rot5_model().ce().d
    alg = d.algebra
    assert d.leibniz_failure is None
    # e1 wedges the fault to zero, so only the pairs (e2, e3^e4), (e3, e2^e4)
    # and (e4, e2^e3) can see it
    bad = WrongOn(d, alg.monomial("e2", "e3", "e4").terms.popitem()[0],
                  alg.monomial("e1", "e2", "e3", "e4"))
    assert bad.leibniz_failure is not None
    assert not leibniz_all_pairs(bad)


def test_leibniz_check_rejects_a_fault_on_a_product_of_non_generators():
    lie = rot5_model().lie_xi()
    alg = lie.algebra
    assert lie.leibniz_failure is None
    # e1^e2^e3^e4 = (e1^e2)^(e3^e4)
    bad = WrongOn(lie, alg.monomial("e1", "e2", "e3", "e4").terms.popitem()[0],
                  alg.monomial("e2", "e3", "e4", "e5"))
    assert bad.leibniz_failure is not None
    assert not leibniz_all_pairs(bad)


def test_leibniz_check_rejects_a_nonzero_image_of_one():
    lie = rot5_model().lie_xi()
    alg = lie.algebra
    bad = WrongOn(lie, alg.unit().terms.popitem()[0], alg.unit())
    assert not bad.apply(alg.unit()).is_zero()
    assert bad.leibniz_failure is not None
    assert not leibniz_all_pairs(bad)


def test_leibniz_check_rejects_a_fault_with_even_generators_and_a_cap():
    alg, d = graded_algebra()
    assert not alg.bitmask
    assert d.leibniz_failure is None and leibniz_all_pairs(d)
    bad = WrongOn(d, alg.monomial("x", "y").terms.popitem()[0],
                  alg.monomial("y", "y"))
    assert bad.leibniz_failure is not None
    assert not leibniz_all_pairs(bad)


def test_leibniz_check_agrees_with_all_pairs_on_corpus_operators():
    for name in CORPUS_MODELS:
        m = load_corpus(name).to_lie_model()
        if m.xi is None or m.eta is None:
            continue
        op = build_d_eta(m)
        for der in (m.ce().d, m.iota_xi(), m.lie_xi(), op.d_eta, op.rho):
            assert (der.leibniz_failure is None) == leibniz_all_pairs(der)


def test_leibniz_check_reads_generator_images_through_apply():
    # every product with y lies above the cap, so a map that differs from a
    # derivation only on y is still a derivation there
    alg = GradedAlgebra([Generator("x", 1), Generator("y", 2)], max_degree=2)
    number = Derivation(alg, 0, dict(enumerate(alg.gens())))
    twisted = WrongOn(number, alg.gen("y").terms.popitem()[0], alg.gen("y"))
    assert twisted.apply(alg.gen("y")) != twisted.images[1]
    assert twisted.leibniz_failure is None and leibniz_all_pairs(twisted)


def leibniz_expansion(der, elem):
    """Reference apply: sum over generator occurrences of
    (-1)^{|D||left|} left * D(g) * right, built with monomial and wedge."""
    alg = der.algebra
    out = alg.zero(elem.degree + der.degree)
    for key, coeff in elem.terms.items():
        idx = alg.key_indices(key)
        prefix_deg = 0
        for t, gi in enumerate(idx):
            sign = -1 if (der.degree * prefix_deg) % 2 else 1
            left = alg.monomial(*idx[:t], coeff=coeff * sign)
            right = alg.monomial(*idx[t + 1:])
            image = der.images.get(gi, alg.zero(alg.degree_of(gi)
                                                + der.degree))
            out = out + left.wedge(image).wedge(right)
            prefix_deg += alg.degree_of(gi)
    return out


@st.composite
def algebras(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        # a cap below n truncates a bitmask algebra too
        return GradedAlgebra([Generator(f"e{i + 1}", 1) for i in range(n)],
                             max_degree=draw(st.integers(1, n)))
    degrees = [2] + draw(st.lists(st.integers(1, 3), max_size=3))
    return GradedAlgebra([Generator(f"x{i + 1}", deg)
                          for i, deg in enumerate(degrees)],
                         max_degree=draw(st.integers(2, 6)))


def elements(draw, alg, degree):
    keys = alg.basis(degree)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(keys),
                           max_size=len(keys)))
    return Element(alg, degree, {k: Fraction(c) for k, c in zip(keys, coeffs)})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_apply_matches_the_leibniz_expansion(data):
    alg = data.draw(algebras())
    degree = data.draw(st.sampled_from([-1, 0, 1]))
    # some generators carry no image: the expansion skips their occurrences,
    # but their degrees still sign the occurrences to their right
    carried = data.draw(st.lists(st.booleans(), min_size=len(alg),
                                 max_size=len(alg)))
    images = {i: elements(data.draw, alg, gen.degree + degree)
              for i, gen in enumerate(alg.generators) if carried[i]}
    der = Derivation(alg, degree, images)
    elem = elements(data.draw, alg, data.draw(st.integers(0, alg.top)))
    got = der.apply(elem)
    assert got == leibniz_expansion(der, elem)
    assert got.degree == elem.degree + degree
    assert all(type(c) is Fraction for c in got.terms.values())
    # the table itself, on every basis monomial of the drawn degree and of
    # the top degree (whose image is empty when the degree rises above it)
    for p in {elem.degree, alg.top}:
        for key in alg.basis(p):
            mono = Element(alg, p, {key: Fraction(1)})
            assert Element(alg, p + degree, der.image(key)) == \
                leibniz_expansion(der, mono)



@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_algebra_map_table_is_the_product_of_generator_images(data):
    # commutes_with reads generators only, so the table it relies on is
    # checked here: each basis monomial's image is the product of its
    # generators' images in key order, and the generator verdict agrees with
    # a pass over every monomial of the tables
    alg = data.draw(algebras())
    images = [gen if data.draw(st.booleans())
              else elements(data.draw, alg, gen.degree) for gen in alg.gens()]
    phi = AlgebraMap(alg, dict(enumerate(images)))
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            product = alg.unit()
            for i in alg.key_indices(key):
                product = product.wedge(images[i])
            assert Element(alg, p, phi.image(key)) == product
    degree = data.draw(st.sampled_from([-1, 0, 1]))
    d = Derivation(alg, degree, {
        i: elements(data.draw, alg, gen.degree + degree)
        for i, gen in enumerate(alg.generators) if data.draw(st.booleans())})
    assert phi.commutes_with(d) == (
        word_disagreements(alg, [([(phi, d)], [(d, phi)])])[0] is None)

def random_derivation(alg, rng, degree):
    images = {}
    for i, gen in enumerate(alg.generators):
        target = gen.degree + degree
        keys = alg.basis(target)
        if not keys:
            continue
        terms = {k: Fraction(rng.randint(-2, 2)) for k in keys
                 if rng.random() < 0.5}
        images[i] = Element(alg, target, terms)
    return Derivation(alg, degree, images)


def fresh_operators():
    """kx5's d, iota_xi, L_xi, d_eta and rho_eta, and the truncated
    even-generator differential, each with a cold cache (rebuilt from its
    images, since the model's Leibniz checks fill its own)."""
    m = load_corpus("kx5").to_lie_model()
    op = build_d_eta(m)
    return [Derivation(der.algebra, der.degree, der.images, der.name)
            for der in (m.ce().d, m.iota_xi(), m.lie_xi(), op.d_eta, op.rho)
            ] + [graded_algebra()[1]]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cached_apply_matches_the_leibniz_expansion(warm):
    rng = random.Random(13)
    for der in fresh_operators():
        alg = der.algebra
        if warm:                    # fill the cache in reverse basis order
            for p in reversed(range(alg.top + 1)):
                for key in reversed(alg.basis(p)):
                    der.apply(Element(alg, p, {key: Fraction(1)}))
        for _ in range(40):
            p = rng.randint(0, alg.top)
            elem = Element(alg, p, {
                k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for k in alg.basis(p) if rng.random() < 0.5})
            assert der.apply(elem) == leibniz_expansion(der, elem), \
                (der, elem)


TRUNCATED = {
    "tuple": lambda: graded_algebra()[0],
    # every generator of degree 1, top cut from 5 to 4
    "bitmask": lambda: GradedAlgebra(ce_algebra(5).generators, max_degree=4),
}


# the tuple-encoded cases keep their plain seed ids
@pytest.mark.parametrize("encoding, seed", [
    *(pytest.param("tuple", s, id=str(s)) for s in range(8)),
    *(pytest.param("bitmask", s, id=f"bitmask-{s}") for s in range(8))])
def test_leibniz_check_agrees_with_all_pairs_on_a_truncated_algebra(
        encoding, seed):
    rng = random.Random(seed)
    alg = TRUNCATED[encoding]()
    assert alg.truncated and alg.bitmask == (encoding == "bitmask")
    degree = rng.choice([-1, 0, 1])
    der = random_derivation(alg, rng, degree)
    p = rng.choice([q for q in range(alg.top + 1) if alg.basis(q + degree)])
    key = rng.choice(alg.basis(p))
    extra = alg.element(p + degree, linalg.sparse(
        [rng.randint(-2, 2) for _ in alg.basis(p + degree)]))
    for op in (der, WrongOn(der, key, extra)):
        assert (op.leibniz_failure is None) == leibniz_all_pairs(op)


@st.composite
def bitmask_derivations(draw):
    """A derivation of degree -1, 0 or +1 on 1-7 degree-1 generators (capped
    at their number, so the algebra extends by an even generator), with
    random rational images on some generators."""
    n = draw(st.integers(1, 7))
    alg = GradedAlgebra([Generator(f"e{i + 1}", 1) for i in range(n)],
                        max_degree=n)
    degree = draw(st.sampled_from([-1, 0, 1]))
    keys = alg.basis(1 + degree)
    images = {}
    for i in range(n):
        if keys and draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(keys), max_size=3,
                                   unique=True))
            images[i] = Element(alg, 1 + degree, {
                k: Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                for k in chosen})
    return Derivation(alg, degree, images)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bitmask_derivations(), st.data())
def test_bitmask_tables_agree_with_the_index_tuple_encoding(der, data):
    # a degree-2 generator turns every key into its index tuple, where the
    # tables are split and merged (key_splits, merge_keys): the reference
    alg, degree = der.algebra, der.degree
    wide = alg.extend([Generator("y", 2)])
    assert alg.bitmask and not wide.bitmask
    ref = der.extend(wide, {})
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            assert {alg.key_indices(k): c for k, c in der.image(key).items()
                    } == ref.image(alg.key_indices(key))
    assert der.leibniz_failure is None and ref.leibniz_failure is None
    if len(alg) <= 5:
        assert leibniz_all_pairs(der)
    # a fault on one key of degree >= 2 is reported at that monomial, in
    # both encodings, since every monomial before it in degree order reads
    # only honest images
    degrees = range(2, alg.top + 1 - max(degree, 0))
    if not degrees:
        return
    q = data.draw(st.sampled_from(degrees))
    key = data.draw(st.sampled_from(alg.basis(q)))
    extra = alg.element(q + degree, {
        data.draw(st.integers(0, alg.dim(q + degree) - 1)): 1})
    bad = WrongOn(der, key, extra)
    assert bad.leibniz_failure == Element(alg, q, {key: 1})
    if len(alg) <= 5:
        assert not leibniz_all_pairs(bad)
    bad_ref = WrongOn(ref, alg.key_indices(key), wide.lift(extra))
    assert bad_ref.leibniz_failure == Element(
        wide, q, {alg.key_indices(key): 1})


def test_bitmask_tables_neither_split_nor_merge_keys(monkeypatch):
    # the degree-1 encoding reads each sign off the bitmask: a table fill
    # or a Leibniz pass that fell back to the index-tuple path would call
    # these; an algebra map takes its first generator off the bitmask too
    # (its product is a wedge, which merges keys)
    def refused(*args):
        raise AssertionError("split or merge on a bitmask table")

    m = rot5_model()
    alg = m.algebra()
    ops = [Derivation(alg, der.degree, der.images)
           for der in (m.ce().d, m.iota_xi(), m.lie_xi())]
    phi = AlgebraMap(alg, {i: -g for i, g in enumerate(alg.gens())})
    monkeypatch.setattr(GradedAlgebra, "key_splits", refused)
    (volume,) = alg.basis(alg.top)
    assert phi.image(volume) == {volume: -1}        # (-1)^5
    monkeypatch.setattr(GradedAlgebra, "merge_keys", refused)
    for der in ops:
        assert alg.bitmask and der.images
        for p in range(alg.top + 1):
            for key in alg.basis(p):
                der.image(key)
        assert der.leibniz_failure is None


@pytest.mark.parametrize("seed", range(6))
def test_supercommutator_antisymmetry(seed):
    rng = random.Random(seed)
    alg = ce_algebra(4)
    f = random_derivation(alg, rng, rng.choice([-1, 0, 1]))
    g = random_derivation(alg, rng, rng.choice([-1, 0, 1]))
    fg = supercommutator(f, g)
    gf = supercommutator(g, f)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            mono = Element(alg, p, {key: Fraction(1)})
            assert fg.apply(mono) == gf.apply(mono).scale(-sign)


def faulty(f, mono, extra):
    """The derivation ``f``, except that the basis monomial ``mono`` also
    maps to ``extra`` (faults nest)."""
    (key, _), = mono.terms.items()
    return WrongOn(f, key, extra)


def test_disagreement_returns_the_first_differing_monomial_in_degree_order():
    d = rot5_model().ce().d
    alg = d.algebra
    e35, e45 = alg.monomial("e3", "e5"), alg.monomial("e4", "e5")
    e234 = alg.monomial("e2", "e3", "e4")
    assert word_disagreements(alg, [([(d,)], [(d,)])])[0] is None
    # a single fault on a degree-3 monomial, seen from either side
    bad = faulty(d, e234, alg.monomial("e1", "e2", "e3", "e4"))
    assert word_disagreements(alg, [([(bad,)], [(d,)])])[0] == e234
    assert word_disagreements(alg, [([(d,)], [(bad,)])])[0] == e234
    # faults on e4^e5 and e3^e5 come before it, and e3^e5 is first
    worse = faulty(faulty(bad, e45, alg.monomial("e1", "e4", "e5")),
                   e35, alg.monomial("e1", "e3", "e5"))
    keys = alg.basis(2)
    assert keys.index(next(iter(e35.terms))) < keys.index(next(iter(e45.terms)))
    assert word_disagreements(alg, [([(worse,)], [(d,)])])[0] == e35
    # inside a word and in a sum of words: d^2 = 0 fails first on e2^e3,
    # whose d is 2 e1^e2^e3^e5 once e2^e3 also maps to e2^e3^e4
    e23 = alg.monomial("e2", "e3")
    wrong = faulty(d, e23, alg.monomial("e2", "e3", "e4"))
    assert word_disagreements(alg, [([(d, d)], ())])[0] is None
    assert word_disagreements(alg, [([(d, wrong)], ())])[0] == e23
    assert word_disagreements(
        alg, [([(d, wrong), (d, d)], [(d, d)])]) == [e23]


def test_disagreement_with_none_compares_with_zero():
    d = rot5_model().ce().d
    alg = d.algebra
    assert d.apply(alg.gen("e1")).is_zero() and not d.apply(alg.gen("e2")).is_zero()
    assert word_disagreements(alg, [([(d,)], ())])[0] == alg.gen("e2")
    assert word_disagreements(alg, [([(d, d)], ())])[0] is None
    zero = Derivation(alg, 1, {})
    assert word_disagreements(alg, [([(d,)], [(zero,)])])[0] == alg.gen("e2")
    assert word_disagreements(alg, [([(zero,)], [])])[0] is None
    with pytest.raises(StructureError, match="different algebra"):
        word_disagreements(ce_algebra(5), [([(d,)], ())])[0]


def test_several_identities_in_one_pass_match_one_at_a_time():
    d = rot5_model().ce().d
    alg = d.algebra
    iota, iota1 = (derivation(alg, -1, {i: alg.scalar(1)}) for i in (1, 0))
    e23, e45 = alg.monomial("e2", "e3"), alg.monomial("e4", "e5")
    e234, e245 = alg.monomial("e2", "e3", "e4"), alg.monomial("e2", "e4", "e5")
    bad = faulty(d, e234, alg.monomial("e1", "e2", "e3", "e4"))
    wrong = faulty(iota, e23, alg.monomial("e2"))
    worse = faulty(d, e45, alg.monomial("e1", "e4", "e5"))
    identities = [
        ([(bad,)], [(d,)]),                     # fails on e2^e3^e4
        ([(d, d, iota)], ()),                   # holds: d^2 = 0
        ([(iota, wrong)], ()),                  # fails on e2^e3
        ([(d, wrong, iota), (d,)], [(d,)]),     # holds: iota^2 e2^e3^e4 = 0
        ([(iota1, worse, iota)], [(iota1, d, iota)])]    # fails on e2^e4^e5
    one_at_a_time = [word_disagreements(alg, [sides])[0]
                     for sides in identities]
    assert one_at_a_time == [e234, None, e23, None, e245]
    assert word_disagreements(alg, identities) == one_at_a_time
    assert word_disagreements(alg, []) == []
    with pytest.raises(StructureError, match="different algebra"):
        word_disagreements(alg, identities[:1] + [([(d,)], [(abelian_dga(
            5).d,)])])


def test_derivation_shares_one_operator_per_degree_and_images():
    alg = ce_algebra(3)
    e1, e2, e3 = alg.gens()
    scalar = alg.scalar
    # zero derivations of degree 0 and 1 have equal (empty) images
    zero0, zero1 = derivation(alg, 0, {}), derivation(alg, 1, {1: alg.zero(2)})
    assert zero0 is not zero1 and (zero0.degree, zero1.degree) == (0, 1)
    assert derivation(alg, 0, {2: alg.zero(1)}) is zero0
    assert derivation(alg, 1, {}) is zero1
    # one support, different coefficients
    iota = derivation(alg, -1, {0: scalar(1)}, name="iota")
    assert derivation(alg, -1, {0: scalar(2)}) is not iota
    assert derivation(alg, -1, {0: scalar(Fraction(1)), 1: alg.zero(0)},
                      name="rho") is iota and iota.name == "iota"
    lie = derivation(alg, 0, {2: e1 + e2})
    assert derivation(alg, 0, {2: e2 + e1}) is lie
    assert derivation(alg, 0, {2: e1 - e2}) is not lie
    assert derivation(alg, 0, {1: e1 + e2}) is not lie
    # a direct Derivation is never shared
    direct = Derivation(alg, 0, {2: e1 + e2})
    assert direct is not lie and derivation(alg, 0, {2: e1 + e2}) is lie
    # an operator nobody holds is dropped, with its table
    lie.apply(e3)
    assert lie._table
    held = len(alg._derivations)
    dropped = weakref.ref(lie)
    del lie
    assert dropped() is None and len(alg._derivations) == held - 1
    fresh = derivation(alg, 0, {2: e1 + e2})
    assert not fresh._table and fresh.apply(e3) == e1 + e2
    # each algebra keeps its own table
    assert derivation(ce_algebra(3), 0, {}) is not zero0


def test_supercommutator_checks_its_extension_against_the_composition():
    alg = ce_algebra(3)
    number = Derivation(alg, 0, dict(enumerate(alg.gens())))
    e12 = alg.monomial("e1", "e2")
    # zero on every generator, so zero as a derivation, but e1^e2 -> e1^e2^e3
    bad = WrongOn(Derivation(alg, 1, {}), next(iter(e12.terms)),
                  alg.monomial("e1", "e2", "e3"))
    assert all(bad.apply(g).is_zero() for g in alg.gens())
    assert not bad.apply(e12).is_zero()
    # supercommutator reads generators, where bad is zero: the extension is
    # the zero derivation, while the composition is -e1^e2^e3 on e1^e2.
    # bad is no derivation, and its Leibniz verdict and word_disagreements
    # find the fault
    ext = supercommutator(bad, number)
    assert all(img.is_zero() for img in ext.images.values())
    assert ext is supercommutator(Derivation(alg, 1, {}), number)
    assert bad.leibniz_failure == e12
    assert word_disagreements(alg, [([(ext,), (number, bad)],
                                     [(bad, number)])]) == [e12]


def test_identities_between_derivations_need_the_leibniz_premise():
    dga = rot5_model().ce()
    alg = dga.algebra
    e23 = alg.monomial("e2", "e3")
    # zero on every generator, so the zero derivation if it were one, but
    # e2^e3 -> e2^e3^e4, whose d is 2 e1^e2^e3^e5: on generators {d, bad}
    # vanishes, on e2^e3 it does not
    bad = WrongOn(Derivation(alg, 1, {}), next(iter(e23.terms)),
                  alg.monomial("e2", "e3", "e4"))
    assert all(bad.apply(g).is_zero() for g in alg.gens())
    assert all((dga.d.apply(bad.apply(g)) + bad.apply(dga.d.apply(g))).is_zero()
               for g in alg.gens())
    assert dga.d.apply(bad.apply(e23)) + bad.apply(dga.d.apply(e23)) == \
        alg.monomial("e1", "e2", "e3", "e5", coeff=2)
    # {d, bad} is decided on generators, on the premise that bad is a
    # derivation: bad breaks it, so the verdict reads True and the kernel
    # subcomplex (d-closed, as Subcomplex verifies) loses e2^e3; bad's
    # Leibniz verdict and word_disagreements find the fault
    assert supercommutes_with_d(dga, bad) is True
    assert [kernel_subcomplex(dga, bad).dim(p) for p in range(6)] == \
        [1, 5, 9, 10, 5, 1]
    assert bad.leibniz_failure == e23
    assert word_disagreements(alg, [([(dga.d, bad), (bad, dga.d)], ())]) == \
        [e23]
    # a differential that squares to zero on generators but is not a
    # derivation: on e2^e3 its square is 2 e1^e2^e3^e5
    bad_d = WrongOn(dga.d, next(iter(e23.terms)), alg.monomial("e2", "e3", "e4"))
    assert all(bad_d.apply(bad_d.apply(g)).is_zero() for g in alg.gens())
    assert supercommutes_with_d(dga, dga.d)
    assert supercommutes_with_d(DGA(alg, bad_d), bad_d)
    assert bad_d.leibniz_failure == e23
    assert word_disagreements(alg, [([(bad_d, bad_d)], ())]) == [e23]


def test_identities_on_generators_refuse_opposite_signs_on_a_truncation():
    # the composition {d, iota} vanishes on generators but sends x y z to
    # y^3, since d(x y z) = -x y^3 lies above the cap
    alg, d = graded_algebra()
    iota = named_derivation(alg, {"x": alg.scalar(1)}, -1)
    xyz = alg.monomial("x", "y", "z")
    assert d(iota(xyz)) + iota(d(xyz)) == alg.monomial("y", "y", "y")
    for call in (lambda: supercommutator(d, iota),
                 lambda: supercommutes_with_d(DGA(alg, d), iota)):
        with pytest.raises(StructureError, match="opposite degree signs"):
            call()
    assert supercommutator(d, d).leibniz_failure is None


def test_cartan_supercommutator_is_lie_derivative():
    dga = heisenberg_dga()
    alg = dga.algebra
    iota = named_derivation(alg, {"e1": alg.scalar(1)}, -1, name="iota")
    lie = supercommutator(dga.d, iota)
    assert lie.degree == 0
    assert lie.apply(alg.gen("e3")) == alg.gen("e2").scale(-1)
    assert lie.apply(alg.gen("e1")).is_zero()


def test_d_with_itself_vanishes():
    dga = heisenberg_dga()
    dd = supercommutator(dga.d, dga.d)
    assert all(dd.apply(Element(dga.algebra, p, {k: Fraction(1)})).is_zero()
               for p in range(dga.top + 1) for k in dga.algebra.basis(p))


def test_d_squared_detects_invalid_brackets():
    # de3 = -e12 with de2 = -e23 violates Jacobi: d(d(e3)) = -e123
    alg = ce_algebra(3)
    d = named_derivation(alg, {
        "e3": alg.monomial("e1", "e2", coeff=-1),
        "e2": alg.monomial("e2", "e3", coeff=-1)}, 1)
    dga = DGA(alg, d)
    assert not supercommutes_with_d(dga, dga.d)
    assert d.apply(d.apply(alg.gen("e3"))) == \
        alg.monomial("e1", "e2", "e3", coeff=-1)


def test_d_squared_accepts_e11_style_brackets():
    # de3 = -e12, de2 = -e13 happens to satisfy Jacobi (a solvable algebra),
    # so d squared vanishes even though the model is not nilpotent
    alg = ce_algebra(3)
    d = named_derivation(alg, {
        "e3": alg.monomial("e1", "e2", coeff=-1),
        "e2": alg.monomial("e1", "e3", coeff=-1)}, 1)
    assert supercommutes_with_d(DGA(alg, d), d)


# -- cohomology ----------------------------------------------------------------


def test_torus_betti_binomials():
    for n in (3, 5):
        betti = abelian_dga(n).cohomology().betti()
        assert betti == tuple(math.comb(n, p) for p in range(n + 1))


def test_heisenberg_betti_oracle():
    dga = heisenberg_dga()
    assert oracle_betti(dga) == (1, 2, 2, 1)
    assert dga.cohomology().betti() == (1, 2, 2, 1)


def test_representatives_are_cocycles_and_independent():
    dga = heisenberg_dga()
    ring = dga.cohomology()
    for p in range(dga.top + 1):
        for i, rep in enumerate(ring.representatives(p)):
            elem = dga.element(p, rep)
            assert dga.d.apply(elem).is_zero()
            assert ring.class_of(p, rep) == {i: 1}


def test_poincare_duality_on_unimodular_models():
    for dga in (abelian_dga(3), abelian_dga(5), heisenberg_dga()):
        betti = dga.cohomology().betti()
        assert betti == betti[::-1]


def test_class_of_sees_exactness():
    dga = heisenberg_dga()
    ring = dga.cohomology()
    e12 = dga.algebra.monomial("e1", "e2")
    assert linalg.dense(ring.class_of(2, dga.coords(2, e12)), 2) == [0, 0]
    e13 = dga.algebra.monomial("e1", "e3")
    assert ring.class_of(2, dga.coords(2, e13))


def test_class_of_returns_the_coefficients_on_the_representatives():
    # R x| R^4 with ad X1 rotating two planes with weights 1 and 2, written
    # in a basis that mixes the planes, so that im d meets the pivot columns
    # of the representatives (in degree 3)
    rot5 = LieModel(5, {(0, 1): {2: 1}, (0, 2): {1: -1},
                        (0, 3): {2: 1, 4: 2}, (0, 4): {1: -1, 3: -2}}).ce()
    rng = random.Random(11)
    for dga in (heisenberg_dga(), rot5):
        ring = dga.cohomology()
        for p in range(dga.top + 1):
            n = dga.dim(p)
            a = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(ring.dim(p))]
            v = linalg.dense(ring.representative_of(p, linalg.sparse(a)), n)
            if p > 0:
                w = [Fraction(rng.randint(-5, 5)) for _ in range(dga.dim(p - 1))]
                dw = linalg.dense(linalg.mat_vec(dga.d_matrix(p - 1),
                                                 linalg.sparse(w)), n)
                v = [x + y for x, y in zip(v, dw)]
            assert linalg.dense(ring.class_of(p, linalg.sparse(v)),
                                ring.dim(p)) == a
            d_rows = [linalg.dense(row, n) for row in dga.d_matrix(p)]
            not_closed = [j for j in range(n)
                          if any(row[j] for row in d_rows)]
            if not_closed:
                with pytest.raises(StructureError):
                    ring.class_of(p, {not_closed[0]: Fraction(1)})


def test_cup_products():
    t3 = abelian_dga(3)
    ring = t3.cohomology()
    # [e1].[e2] = [e1^e2] on the torus
    prod = ring.cup_basis(1, 0, 1, 1)
    rep = ring.representative_of(2, prod)
    assert t3.element(2, rep) == t3.algebra.monomial("e1", "e2")
    assert not ring.cup_basis(1, 0, 1, 0)            # [e1].[e1] = 0
    heis = heisenberg_dga()
    hring = heis.cohomology()
    # heisenberg: e1^e2 = -d(e3) is exact, so its class is zero
    e12 = heis.algebra.coords(heis.algebra.monomial("e1", "e2"))
    assert not hring.class_of(2, e12)
    assert not hring.cup_basis(1, 0, 1, 1)


# -- induced maps ----------------------------------------------------------------


def test_identity_inclusion_induces_identity():
    dga = heisenberg_dga()
    sub = Subcomplex(dga, {p: linalg.identity(dga.dim(p))
                           for p in range(dga.top + 1)})
    for p in range(dga.top + 1):
        ind = inclusion_induced_map(sub, p)
        assert ind.isomorphism
        n = ind.source_dim
        assert [linalg.dense(row, n) for row in ind.matrix] == \
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_noninjective_induced_map_on_heisenberg():
    # ker(L_X1) includes into the full complex; H^2 kills [e1^e2]
    from cokahler import linalg
    dga = heisenberg_dga()
    alg = dga.algebra
    iota = named_derivation(alg, {"e1": alg.scalar(1)}, -1)
    lie = supercommutator(dga.d, iota)
    spans = {p: linalg.kernel_span(lie.matrix(p), alg.dim(p)).rows
             for p in range(4)}
    sub = Subcomplex(dga, spans)
    ind = inclusion_induced_map(sub, 2)
    assert not ind.injective and not ind.surjective and ind.rank == 1
    killed = sub.element(2, sub.cohomology().representative_of(
        2, ind.kernel_classes[0]))
    assert killed == alg.monomial("e1", "e2")


def test_induced_map_of_the_identity_push_is_the_identity():
    dga = heisenberg_dga()
    for p in range(dga.top + 1):
        ind = induced_map(dga, p, dga, p, lambda rep: rep)
        n = dga.cohomology().dim(p)
        assert ind.isomorphism and ind.kernel_classes == []
        assert ind.matrix == linalg.identity(n)


def test_induced_map_of_the_zero_push_kills_every_class():
    dga = heisenberg_dga()
    ring = dga.cohomology()
    for p in range(dga.top + 1):
        ind = induced_map(dga, p, dga, p,
                          lambda rep: {})
        assert ind.rank == 0 and ind.source_dim == ring.dim(p)
        assert ind.kernel_classes == linalg.identity(ring.dim(p))
        assert kernel_witnesses(dga, ind) == [
            repr(dga.element(p, rep)) for rep in ring.representatives(p)]
    ind = induced_map(dga, 2, dga, 2, lambda rep: {})
    assert kernel_witnesses(dga, ind) == ["e1^e3", "e2^e3"]


def heisenberg_lie_kernel():
    """ker(L_X1) in the Heisenberg complex: span(e1, e2) in degree 1 and
    span(e1^e2, e2^e3) in degree 2."""
    dga = heisenberg_dga()
    alg = dga.algebra
    iota = named_derivation(alg, {"e1": alg.scalar(1)}, -1)
    lie = supercommutator(dga.d, iota)
    return Subcomplex(dga, {
        p: linalg.kernel_span(lie.matrix(p), alg.dim(p)).rows
        for p in range(4)})


def test_subcomplex_coords_take_an_element():
    sub = heisenberg_lie_kernel()
    alg = sub.parent.algebra
    e1, e2, e3 = alg.gens()
    assert linalg.dense(sub.coords(1, e1.scale(2) - e2.scale(3)), 2) == [2, -3]
    assert linalg.dense(sub.coords(2, alg.monomial("e2", "e3")), 2) == [0, 1]
    assert linalg.dense(sub.coords(1, alg.zero(1)), 2) == [0, 0]
    with pytest.raises(StructureError, match="not in the degree 1 subspace"):
        sub.coords(1, e3)


def test_wedge_coords_agree_on_a_dga_and_its_full_subcomplex():
    dga = heisenberg_dga()
    full = Subcomplex(dga, {p: linalg.identity(dga.dim(p))
                            for p in range(dga.top + 1)})
    for p, q in ((0, 1), (1, 1), (1, 2), (2, 2)):
        for i in range(dga.dim(p)):
            for j in range(dga.dim(q)):
                v = {i: Fraction(1)}
                w = {j: Fraction(1)}
                assert full.wedge_coords(p, v, q, w) == \
                    dga.wedge_coords(p, v, q, w)
    # on a proper subcomplex the product is read in the subcomplex basis
    sub = heisenberg_lie_kernel()
    e1, e2 = {0: Fraction(1)}, {1: Fraction(1)}
    assert linalg.dense(sub.wedge_coords(1, e1, 1, e2), 2) == [1, 0]
    assert linalg.dense(sub.wedge_coords(1, e2, 1, e1), 2) == [-1, 0]
    assert linalg.dense(sub.wedge_coords(1, e1, 2, linalg.sparse([0, 1])),
                        1) == [1]   # e1^e2^e3


def test_a_ring_computes_a_degree_when_first_asked():
    # d is read by rows (an elimination) and by columns (the image and
    # class_of); both readers are spied
    dga = abelian_dga(5)
    read = []

    def spy(reader):
        def spied(p):
            read.append(p)
            return reader(p)
        return spied

    dga.d_matrix, dga.d_columns = spy(dga.d_matrix), spy(dga.d_columns)
    ring = CohomologyRing(dga)
    assert read == []
    assert ring.dim(3) == 10
    assert set(read) == {2, 3}
    assert ring.betti() == (1, 5, 10, 10, 5, 1)


def test_subcomplex_closure_failure_raises():
    # span(e3) is not d-closed in the Heisenberg complex
    dga = heisenberg_dga()
    spans = {1: [linalg.sparse([Fraction(0), Fraction(0), Fraction(1)])]}
    with pytest.raises(StructureError):
        Subcomplex(dga, spans)


# -- extensions by closed and Hirsch generators -------------------------------


def test_tensor_unit():
    # the empty DGA extended by T^3's generators is T^3
    t3 = abelian_dga(3)
    trivial_alg = GradedAlgebra([])
    trivial = DGA(trivial_alg, Derivation(trivial_alg, 1, {}))
    extended = trivial.extend(list(t3.algebra.generators), {})
    assert extended.cohomology().betti() == t3.cohomology().betti()


def test_kunneth_t2_times_circle_is_t3():
    prod = abelian_dga(2, prefix="a").extend([Generator("h", 1)], {})
    assert prod.cohomology().betti() == (1, 3, 3, 1)


def test_kunneth_heisenberg_times_circle():
    # oracle: convolution of (1,2,2,1) with (1,1), computed by hand
    prod = heisenberg_dga().extend([Generator("t", 1)], {})
    assert kunneth_convolution((1, 2, 2, 1), (1, 1)) == (1, 3, 4, 3, 1)
    assert prod.cohomology().betti() == (1, 3, 4, 3, 1)
    assert oracle_betti(prod) == (1, 3, 4, 3, 1)


@pytest.mark.parametrize("left,right", [(2, 2), (3, 2)])
def test_kunneth_dimension_identity(left, right):
    a, b = abelian_dga(left, prefix="a"), abelian_dga(right, prefix="b")
    prod = a.extend(list(b.algebra.generators), {})
    assert prod.cohomology().betti() == kunneth_convolution(
        a.cohomology().betti(), b.cohomology().betti())


def test_tensor_name_collision_rejected():
    with pytest.raises(StructureError, match="unique"):
        abelian_dga(2).extend([Generator("e1", 1)], {})


def test_tensor_differential_signs():
    # d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db on heisenberg x heisenberg,
    # the second factor adjoined as two closed generators, then a third
    # with d f3 = -f1 f2
    closed = heisenberg_dga().extend([Generator("f1", 1),
                                      Generator("f2", 1)], {})
    f1, f2 = closed.algebra.gen("f1"), closed.algebra.gen("f2")
    prod = closed.extend([Generator("f3", 1)], {"f3": -(f1.wedge(f2))})
    assert supercommutes_with_d(prod, prod.d)
    assert prod.d.leibniz_failure is None
    assert prod.cohomology().betti() == kunneth_convolution(
        (1, 2, 2, 1), (1, 2, 2, 1))


# -- invariant subalgebras ----------------------------------------------------------


def oracle_fixed_dims(matrices):
    """Fixed-subspace dimensions per degree via sympy nullspace of (M - I)."""
    out = []
    for mat in matrices:
        n = len(mat)
        if n == 0:
            out.append(0)
            continue
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in mat]) - sympy.eye(n)
        out.append(len(sm.nullspace()))
    return out


def test_identity_fixes_everything():
    t2 = abelian_dga(2)
    e1, e2 = t2.algebra.gens()
    phi = AlgebraMap(t2.algebra, {"e1": e1, "e2": e2})
    inv = invariant_subalgebra(t2, phi, 1)
    assert [inv.dim(p) for p in range(3)] == [t2.dim(p) for p in range(3)]


def test_rotation_by_90_degrees():
    t2 = abelian_dga(2)
    e1, e2 = t2.algebra.gens()
    phi = AlgebraMap(t2.algebra, {"e1": e2, "e2": -e1})
    inv = invariant_subalgebra(t2, phi, 4)
    assert [inv.dim(p) for p in range(3)] == [1, 0, 1]
    assert oracle_fixed_dims([[linalg.dense(row, t2.dim(p))
                               for row in linalg.transpose(
                                   phi.columns(p), t2.dim(p))]
                              for p in range(3)]) == [1, 0, 1]
    assert inv.element(2, {0: 1}) == t2.algebra.monomial("e1", "e2")


def test_minus_identity():
    t2 = abelian_dga(2)
    e1, e2 = t2.algebra.gens()
    phi = AlgebraMap(t2.algebra, {"e1": -e1, "e2": -e2})
    inv = invariant_subalgebra(t2, phi, 2)
    assert [inv.dim(p) for p in range(3)] == [1, 0, 1]
    assert oracle_fixed_dims([[linalg.dense(row, t2.dim(p))
                               for row in linalg.transpose(
                                   phi.columns(p), t2.dim(p))]
                              for p in range(3)]) == [1, 0, 1]


def test_invariant_subalgebra_validations():
    t2 = abelian_dga(2)
    e1, e2 = t2.algebra.gens()
    rot = AlgebraMap(t2.algebra, {"e1": e2, "e2": -e1})
    with pytest.raises(StructureError):
        invariant_subalgebra(t2, rot, 3)          # wrong order
    degenerate = AlgebraMap(t2.algebra, {"e1": e1, "e2": e1})
    with pytest.raises(StructureError):
        invariant_subalgebra(t2, degenerate, 1)   # not an automorphism
    heis = heisenberg_dga()
    g1, g2, g3 = heis.algebra.gens()
    swap = AlgebraMap(heis.algebra, {"e1": g2, "e2": g1, "e3": g3})
    with pytest.raises(StructureError):
        invariant_subalgebra(heis, swap, 2)       # does not commute with d


def failed_checks(sec) -> set:
    """The names of a section's false asserted verdicts."""
    return {a["check"] for a in sec.asserted if not a["ok"]}


@pytest.mark.parametrize("method, extra", [
    ("iota", ("e2", "e4")), ("lie_coadjoint", ("e2", "e3", "e5"))],
    ids=["iota", "lie_coadjoint"])
def test_operator_identities_read_every_monomial(monkeypatch, method, extra):
    # iota_X or L_X wrong on the degree-3 monomial e2^e3^e4 only: no check
    # on generators sees it.  Along X2 the identities test the construction
    # and word_disagreements finds the fault; along xi = X1 the report's
    # Leibniz verdicts do, whenever the fault enters
    m = rot5_model()
    dga, alg = m.ce(), m.algebra()
    e234 = alg.monomial("e2", "e3", "e4")
    key = next(iter(e234.terms))

    def wrong(der):
        return WrongOn(der, key, der.algebra.monomial(*extra))

    assert all(a["ok"] for a in operator_identity_report(m).asserted)
    bad = wrong(getattr(m, method)({1: 1}))
    iota = m.iota({1: 1})
    identity = ([(bad, bad)], ()) if method == "iota" else \
        ([(dga.d, iota), (iota, dga.d)], [(bad,)])
    assert word_disagreements(alg, [identity]) == [e234]
    # the same fault on iota_xi, or on L_xi: a false verdict.  L_xi =
    # {d, iota_xi} is built on generators, where the tampered iota_xi is
    # honest, so a fault on iota_xi before that build gives the same verdicts
    m = rot5_model()
    name = "iota_xi" if method == "iota" else "lie_xi"
    honest = getattr(LieModel, name)
    m.lie_xi()                              # on the honest iota_xi
    monkeypatch.setattr(LieModel, name, lambda self: wrong(honest(self)))
    failing = {"iota_squared_zero", "cartan_formula", "leibniz_operators"} \
        if method == "iota" else {"cartan_formula", "leibniz_operators"}
    assert failed_checks(operator_identity_report(m)) == failing
    if method == "iota":
        assert failed_checks(operator_identity_report(rot5_model())) == \
            failing


def test_commutes_with_reads_every_monomial_of_the_map():
    dga = rot5_model().ce()
    alg = dga.algebra
    ident = AlgebraMap(alg, dict(enumerate(alg.gens())))
    assert ident.commutes_with(dga.d)
    # d(e4^e5) = 0, and no d(generator) holds e4^e5, so the fault
    # e4^e5 -> e4^e5 + e2^e4 is invisible on generators
    e45 = alg.monomial("e4", "e5")
    bad = MapWrongOn(ident, next(iter(e45.terms)), alg.monomial("e2", "e4"))
    d = dga.d
    assert all(bad(d(g)) == d(bad(g)) for g in alg.gens())
    assert not d(bad(e45)).is_zero() and d(e45).is_zero()
    # commutes_with reads generators, as phi d - d phi is a phi-derivation
    # on the premise that the table is phi's multiplicative extension: bad
    # breaks it, and word_disagreements finds the fault
    assert bad.commutes_with(d)
    assert word_disagreements(alg, [([(bad, d)], [(d, bad)])])[0] == e45
    assert bad.columns(2) != ident.columns(2)


def test_supercommutes_with_d_detects_failure():
    heis = heisenberg_dga()
    alg = heis.algebra
    lie2 = supercommutator(heis.d, named_derivation(alg, {"e2": alg.scalar(1)}, -1))
    assert supercommutes_with_d(heis, lie2)
    # e1 -> e3 does not chain-commute: {d, op}(e1) = d(e3) = -e12
    bad = named_derivation(alg, {"e1": alg.gen("e3")}, 0)
    assert not supercommutes_with_d(heis, bad)


def test_an_extension_grows_d_and_keeps_the_cohomology_below_it():
    # Lambda(a, b; db = a^2) with a of degree 2, then c of degree 3 with
    # dc = 0 and u of degree 4 with du = a c: d's columns, as grown on
    # copies, are those of d built afresh on the extension, and the degrees
    # below the new generators keep their computed cohomology as it was
    alg = GradedAlgebra([Generator("a", 2), Generator("b", 3)], max_degree=9)
    a = alg.gen("a")
    dga = DGA(alg, named_derivation(alg, {"b": a.wedge(a)}, 1, name="d"))
    before = [list(dga.d_columns(p)) for p in range(alg.top + 1)]
    betti = dga.betti()
    grown = dga.extend([Generator("c", 3)], {})
    c = grown.algebra.gen("c")
    grown = grown.extend([Generator("u", 4)],
                         {"u": grown.algebra.lift(a).wedge(c)})
    new = grown.algebra
    fresh = Derivation(new, 1, {i: img for i, img in grown.d.images.items()})
    for p in range(new.top + 1):
        assert grown.d_columns(p) == DGA(new, fresh).d_columns(p)
        assert grown.d.matrix(p) == fresh.matrix(p)
    assert [dga.d_columns(p) for p in range(alg.top + 1)] == before
    slices = grown.cohomology_store[0]
    assert sorted(slices) == [0, 1, 2]
    for p in range(3):
        assert slices[p] is dga.cohomology_store[0][p]
    assert grown.betti() == DGA(new, fresh).betti()
    assert grown.betti()[:3] == betti[:3]
    with pytest.raises(StructureError, match="new generators only"):
        dga.d.extend(alg.extend([Generator("v", 5)]), {0: a})


def test_an_extension_keeps_d_columns_when_the_keys_change_encoding():
    # the Heisenberg algebra (bitmask keys) extended by w of degree 2 with
    # dw = xyz (index-tuple keys): d's table starts afresh, and its stored
    # columns, on coordinates, carry over, so only monomials with w are
    # expanded
    alg = GradedAlgebra([Generator(g, 1) for g in "xyz"], max_degree=5)
    x, y, z = alg.gens()
    dga = DGA(alg, named_derivation(alg, {"z": x.wedge(y)}, 1, name="d"))
    stored = [dga.d_columns(p) for p in range(alg.top + 1)]
    grown = dga.extend([Generator("w", 2)], {"w": x.wedge(y).wedge(z)})
    new = grown.algebra
    assert alg.bitmask and not new.bitmask
    assert grown.d._table and all(3 in key for key in grown.d._table)
    fresh = DGA(new, Derivation(new, 1, dict(grown.d.images)))
    for p in range(new.top + 1):
        assert grown.d_columns(p) == fresh.d_columns(p)
        assert p > alg.top or grown.d_columns(p)[:len(stored[p])] == stored[p]
    assert grown.betti() == fresh.betti()


@pytest.mark.parametrize("even", [False, True], ids=["bitmask", "tuple"])
def test_dga_wedge_coords_is_the_element_product(even):
    degrees = (1, 2, 1, 3, 2) if even else (1,) * 6
    alg = GradedAlgebra([Generator(f"g{i}", d) for i, d in enumerate(degrees)],
                        max_degree=8)
    dga = DGA(alg, Derivation(alg, 1, {}, name="d"))
    rng = random.Random(3)
    for _ in range(40):
        p, q = rng.randint(0, alg.top), rng.randint(0, alg.top)
        v = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for j in range(alg.dim(p)) if rng.random() < 0.5}
        w = {j: rng.randint(-4, 4) for j in range(alg.dim(q))
             if rng.random() < 0.5}
        v, w = ({j: c for j, c in x.items() if c} for x in (v, w))
        product = dga.element(p, v).wedge(dga.element(q, w))
        expected = {} if product.is_zero() else dga.coords(p + q, product)
        assert dga.wedge_coords(p, v, q, w) == expected
