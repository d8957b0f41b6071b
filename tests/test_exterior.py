"""Graded-commutative product laws, exhaustively and by random sampling."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cokahler.errors import StructureError
from cokahler.exterior import Element, Generator, GradedAlgebra


def ce_algebra(n):
    return GradedAlgebra([Generator(f"e{i + 1}", 1) for i in range(n)])


@pytest.fixture
def alg3():
    return ce_algebra(3)


def test_basis_product_examples(alg3):
    e1, e2, e3 = alg3.gens()
    assert e1.wedge(e2) == alg3.monomial("e1", "e2")
    assert e2.wedge(e1) == alg3.monomial("e1", "e2", coeff=-1)
    assert e1.wedge(e1).is_zero()


def test_canonicalize_examples(alg3):
    key, sign = alg3.canonicalize([2, 0])       # (e3, e1) -> (e1, e3), one swap
    assert sign == -1 and alg3.key_str(key) == "e1^e3"
    key, sign = alg3.canonicalize([0, 1])
    assert sign == 1 and alg3.key_str(key) == "e1^e2"
    _, sign = alg3.canonicalize([1, 1])          # odd generator squared
    assert sign == 0


def test_canonicalize_idempotent_and_multiplicative(alg3):
    rng = random.Random(0)
    for _ in range(50):
        seq = [rng.randrange(3) for _ in range(rng.randint(0, 4))]
        key, sign = alg3.canonicalize(seq)
        if sign == 0:
            continue
        key2, sign2 = alg3.canonicalize(alg3.key_indices(key))
        assert (key2, sign2) == (key, 1)
        # sign is multiplicative under concatenation
        other = [rng.randrange(3) for _ in range(rng.randint(0, 3))]
        k_o, s_o = alg3.canonicalize(other)
        k_cat, s_cat = alg3.canonicalize(seq + other)
        if s_o != 0 and s_cat != 0:
            k_merge, s_merge = alg3.merge_keys(key, k_o)
            assert s_cat == sign * s_o * s_merge and k_cat == k_merge


def test_degrees(alg3):
    assert alg3.monomial("e1", "e2").degree == 2
    assert alg3.scalar(5).degree == 0
    assert alg3.monomial("e1", "e2", "e3").degree == 3


def test_unknown_generator_rejected(alg3):
    with pytest.raises(StructureError):
        alg3.monomial("e9")
    with pytest.raises(StructureError):
        alg3.canonicalize([7])


def test_mixed_algebra_arithmetic_rejected(alg3):
    other = ce_algebra(3)
    with pytest.raises(StructureError):
        alg3.gen("e1").wedge(other.gen("e1"))
    with pytest.raises(StructureError):
        alg3.gen("e1") + other.gen("e1")


def test_graded_commutativity_exhaustive():
    # over every pair of basis monomials of a 4-generator CE algebra
    alg = ce_algebra(4)
    for p in range(alg.top + 1):
        for q in range(alg.top + 1):
            for k1 in alg.basis(p):
                a = Element(alg, p, {k1: Fraction(1)})
                for k2 in alg.basis(q):
                    b = Element(alg, q, {k2: Fraction(1)})
                    sign = -1 if (p * q) % 2 else 1
                    assert a.wedge(b) == b.wedge(a).scale(sign)


def test_graded_commutativity_with_even_generators():
    alg = GradedAlgebra([Generator("a", 2), Generator("x", 1),
                         Generator("b", 2)], max_degree=6)
    for p, q in itertools.product(range(5), repeat=2):
        for k1 in alg.basis(p):
            a = Element(alg, p, {k1: Fraction(1)})
            for k2 in alg.basis(q):
                b = Element(alg, q, {k2: Fraction(1)})
                sign = -1 if (p * q) % 2 else 1
                assert a.wedge(b) == b.wedge(a).scale(sign)


def random_element(alg, rng, degree):
    keys = alg.basis(degree)
    terms = {k: Fraction(rng.randint(-3, 3)) for k in keys if rng.random() < 0.6}
    return Element(alg, degree, terms)


@pytest.mark.parametrize("seed", range(10))
def test_associativity_random_triples(seed):
    rng = random.Random(seed)
    alg = ce_algebra(5)
    a = random_element(alg, rng, rng.randint(0, 2))
    b = random_element(alg, rng, rng.randint(0, 2))
    c = random_element(alg, rng, rng.randint(0, 2))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_bilinearity(u, v):
    alg = ce_algebra(3)
    e1, e2, e3 = alg.gens()
    a = e1.scale(u) + e2.scale(v)
    b = e2 + e3
    lhs = a.wedge(b)
    rhs = e1.wedge(b).scale(u) + e2.wedge(b).scale(v)
    assert lhs == rhs
    assert a.wedge(b + b) == a.wedge(b).scale(2)


def test_top_degree_truncation():
    alg = GradedAlgebra([Generator("a", 2)], max_degree=4)
    a = alg.gen("a")
    assert not a.wedge(a).is_zero()
    assert a.wedge(a).wedge(a).is_zero()       # degree 6 > cap


def test_even_generators_require_cap():
    with pytest.raises(StructureError):
        GradedAlgebra([Generator("a", 2)])


def test_homogeneity_enforced(alg3):
    e1, e2 = alg3.gen("e1"), alg3.gen("e2")
    with pytest.raises(StructureError):
        e1 + e1.wedge(e2)
    with pytest.raises(StructureError):
        Element(alg3, 2, {alg3.canonicalize([0])[0]: Fraction(1)})


@pytest.mark.parametrize("even", [False, True], ids=["bitmask", "tuple"])
def test_public_constructor_checks_every_key_degree(even):
    # keys handed in from outside are checked; only keys the algebra made
    # itself skip the check
    alg = GradedAlgebra([Generator("e1", 1), Generator("e2", 2 if even else 1)],
                        max_degree=4 if even else None)
    key, = alg.gen("e1").terms
    with pytest.raises(StructureError, match="element claims 2"):
        Element(alg, 2, {key: 1})


def test_coords_round_trip(alg3):
    elem = alg3.monomial("e1", "e3") - alg3.monomial("e2", "e3", coeff=Fraction(1, 2))
    assert alg3.element(2, alg3.coords(elem)) == elem


def test_duplicate_names_rejected():
    with pytest.raises(StructureError):
        GradedAlgebra([Generator("e1", 1), Generator("e1", 1)])


def test_constructors_store_integral_coefficients_as_ints(alg3):
    # one exact form: an int when integral, else a Fraction, never a bool
    e1, e2, _ = alg3.gens()
    made = [e1, alg3.scalar(True), alg3.scalar(Fraction(6, 3)),
            alg3.monomial("e2", "e1", coeff=Fraction(4, 2)),
            e1.scale(Fraction(-3, 1)), e1.wedge(e2), e1.scale(2)]
    assert [type(c) for elem in made for c in elem.terms.values()] == [int] * 7
    assert made[3] == alg3.monomial("e1", "e2", coeff=-2)
    half = e1.scale(Fraction(1, 2))
    assert type(half.terms[1]) is Fraction
    assert half.scale(2) == e1 and repr(half.wedge(e2)) == "1/2*e1^e2"


def test_equal_elements_hash_equal(alg3):
    # every zero equals every other zero and 0, and a scalar equals its
    # coefficient, so they hash alike
    zero1, zero2 = alg3.zero(1), alg3.zero(2)
    assert zero1 == zero2 and len({zero1, zero2}) == 1 and 0 in {zero1}
    assert alg3.scalar(3) == 3 and 3 in {alg3.scalar(3)}
    half = alg3.scalar(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) in {half}
    x = alg3.monomial("e1", "e2")
    assert x in {alg3.monomial("e2", "e1", coeff=-1)} and x not in {x.scale(2)}


EXTENSIONS = {
    # (generator degrees before, degrees added, max_degree)
    "bitmask": ((1, 1, 1), (1, 1), None),
    "re-encoded": ((1, 1, 1), (2, 3, 1), 6),
    "tuple": ((1, 2), (2, 3, 4), 7),
    "empty": ((), (3, 2), 6),
}


def degree_algebra(degrees, max_degree, prefix="x"):
    gens = [Generator(f"{prefix}{i + 1}", d) for i, d in enumerate(degrees)]
    return GradedAlgebra(gens, max_degree=max_degree)


@pytest.mark.parametrize("case", sorted(EXTENSIONS))
def test_extension_keeps_the_old_basis_in_front(case):
    before, added, cap = EXTENSIONS[case]
    old = degree_algebra(before, cap)
    new = old.extend([Generator(f"y{i + 1}", d) for i, d in enumerate(added)])
    full = GradedAlgebra(new.generators, max_degree=cap)
    assert new.bitmask == full.bitmask and new.top == full.top
    assert new.bitmask == (case == "bitmask")
    for p in range(new.top + 2):
        keys = new.basis(p)
        prefix = [old.key_indices(k) if old.bitmask and not new.bitmask
                  else k for k in old.basis(p)]
        assert list(keys[:len(prefix)]) == prefix
        # the same monomials as a canonical build, each once
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(full.basis(p))
        assert new.basis_index(p) == {k: i for i, k in enumerate(keys)}


@pytest.mark.parametrize("case", sorted(EXTENSIONS))
def test_lifted_products_are_products_in_the_extension(case):
    before, added, cap = EXTENSIONS[case]
    old = degree_algebra(before, cap)
    new = old.extend([Generator(f"y{i + 1}", d) for i, d in enumerate(added)])
    rng = random.Random(case)
    for _ in range(20):
        a, b = (old.element(p, {j: rng.randint(-3, 3) or 1
                                for j in range(old.dim(p))})
                for p in (rng.randint(0, old.top), rng.randint(0, old.top)))
        assert new.lift(a.wedge(b)) == new.lift(a).wedge(new.lift(b))
    assert new.lift(new.gen(0)) == new.gen(0)
    with pytest.raises(StructureError, match="does not extend"):
        new.lift(degree_algebra((1,), None, prefix="z").gen(0))


def test_merge_keys_matches_canonicalize():
    # the tuple path merges two sorted keys; canonicalize sorts by swaps
    alg = degree_algebra((1, 2, 3, 1, 2, 3, 1), 12)
    rng = random.Random(7)
    for _ in range(500):
        k1, k2 = (alg.canonicalize(rng.choices(range(len(alg)),
                                                k=rng.randint(0, 4)))
                  for _ in range(2))
        if k1[1] and k2[1]:
            assert alg.merge_keys(k1[0], k2[0]) == \
                alg.canonicalize(k1[0] + k2[0])
