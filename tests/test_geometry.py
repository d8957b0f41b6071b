"""Contact-metric checks at the Lie-algebra level.

Oracles: Eq-style tensor identities evaluated entrywise with plain
matrix arithmetic, the Koszul formula expanded by hand, and the coadjoint
formula for Lie derivatives of invariant forms.
"""

from fractions import Fraction

import pytest

from cokahler import linalg
from cokahler.cdga import supercommutator
from cokahler.errors import StructureError
from cokahler.exterior import Element
from cokahler.geometry import (LieModel, _check_connection, classify,
                               is_killing, is_parallel_form,
                               nijenhuis_normality, omega_element,
                               validate_almost_contact)
from cokahler.modelfile import CORPUS_MODELS, load_corpus, loads

from test_report_bytes import PINNED, model_texts, pinned_text


def test_model_validations():
    with pytest.raises(StructureError):
        LieModel(3, {(0, 0): {1: 1}})            # [X,X] must vanish
    with pytest.raises(StructureError):
        LieModel(3, {(0, 5): {1: 1}})            # index out of range
    with pytest.raises(StructureError):
        LieModel(2, {}, metric=[[1, 2], [2, 1]])  # not positive definite
    with pytest.raises(StructureError):
        LieModel(2, {}, metric=[[1, 1], [0, 1]])  # not symmetric
    with pytest.raises(StructureError):
        # [X1,X2]=X3, [X2,X3]=X2 violates Jacobi
        LieModel(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})


@pytest.mark.parametrize("mat", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]],      # a row of 4 entries
    [[1, 0, 0], [0, 1, 0]],                    # 2 x 3
])
def test_an_automorphism_of_the_wrong_shape_is_refused(mat):
    with pytest.raises(StructureError, match="automorphism has the wrong shape"):
        LieModel(3, {}, automorphism=(mat, 2))


def test_an_automorphism_that_does_not_commute_with_d_is_refused():
    # kx5's brackets: d e4 and d e5 hold e2, so e2 -> -e2 turns d e4 to
    # -d e4 while fixing e4; turning e4 and e5 over instead commutes with d
    kx5 = {(1, 3): {4: 1}, (1, 4): {3: -1}}

    def diagonal(*entries):
        return [[entries[i] if i == j else 0 for j in range(5)]
                for i in range(5)]

    with pytest.raises(StructureError,
                       match="automorphism does not commute with d"):
        LieModel(5, kx5, automorphism=(diagonal(1, -1, 1, 1, 1), 2))
    phi, order = LieModel(5, kx5, automorphism=(
        diagonal(1, 1, 1, -1, -1), 2)).automorphism
    e4 = phi.algebra.gen("e4")
    assert order == 2 and phi(e4) == -e4


def test_bracket_antisymmetry_completion():
    m = LieModel(3, {(0, 1): {2: 1}})
    assert m.bracket(0, 1) == {2: Fraction(1)}
    assert m.bracket(1, 0) == {2: Fraction(-1)}
    assert m.bracket(2, 2) == {}


def test_almost_contact_validation(torus3, heisenberg):
    assert validate_almost_contact(torus3).ok
    # almost-contact is pointwise; brackets are irrelevant
    assert validate_almost_contact(heisenberg).ok
    bad = LieModel(3, {(0, 1): {2: 1}}, xi=[1, 0, 0], eta=[1, 0, 0],
                   J=[[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    verdict = validate_almost_contact(bad)
    assert not verdict.ok
    assert "J^2 + I - eta(x)xi" in verdict.witnesses


# heisenberg brackets, xi = X1, eta = e1 and J0 rotating (X2, X3)
J0 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]


def heisenberg_with(**data):
    args = {"xi": [1, 0, 0], "eta": [1, 0, 0], "J": J0, **data}
    return LieModel(3, {(0, 1): {2: 1}}, **args)


@pytest.mark.parametrize("data, witnesses", [
    ({"J": [[2 * v for v in row] for row in J0]},
     {"J^2 + I - eta(x)xi": "slot (2,2): -3",
      "g(J.,J.) - g + eta eta": "slot (2,2): 3"}),
    ({"eta": [2, 0, 0]},
     {"J^2 + I - eta(x)xi": "slot (1,1): -1", "eta(xi)": "value 2",
      "g(J.,J.) - g + eta eta": "slot (1,1): 3"}),
    ({"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]},
     {"g(J.,J.) - g + eta eta": "slot (2,2): 1"}),
    ({"xi": [0, 1, 0]},
     {"J^2 + I - eta(x)xi": "slot (1,1): 1", "eta(xi)": "value 0"}),
])
def test_almost_contact_witness_strings(data, witnesses):
    verdict = validate_almost_contact(heisenberg_with(**data))
    assert not verdict.ok and verdict.witnesses == witnesses


def oracle_omega(m):
    """Entrywise omega(X_i, X_j) = g(J X_i, X_j)."""
    n = m.dimension
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            jxi = [m.J[k].get(i, 0) for k in range(n)]
            val = sum(m.metric[k].get(r, 0) * jxi[k] * (r == j)
                      for k in range(n) for r in range(n))
            if val:
                entries[(i, j)] = val
    return entries


def test_fundamental_form(torus3, torus5, heisenberg):
    assert omega_element(torus3) == torus3.algebra().monomial("e2", "e3")
    alg5 = torus5.algebra()
    assert omega_element(torus5) == \
        alg5.monomial("e2", "e3") + alg5.monomial("e4", "e5")
    for m in (torus3, torus5, heisenberg):
        omega = omega_element(m)
        want = m.algebra().zero(2)
        for (i, j), val in oracle_omega(m).items():
            want = want + m.algebra().monomial(i, j, coeff=val)
        assert omega == want
        assert m.iota(m.xi).apply(omega).is_zero()


def test_fundamental_form_refuses_invalid_structure():
    bad = LieModel(3, {}, xi=[1, 0, 0], eta=[1, 0, 0],
                   J=[[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(StructureError):
        omega_element(bad)


def test_levi_civita_abelian_vanishes(torus5):
    gamma = torus5.levi_civita()
    assert all(not gamma[i][j] for i in range(5) for j in range(5))


def test_levi_civita_heisenberg_koszul_oracle(heisenberg):
    gamma = heisenberg.levi_civita()
    # oracle: 2 g(nabla_{X_i} X_j, X_k) expanded by hand for g = id,
    # [X1,X2] = X3:  nabla_{X1}X2 = X3/2, nabla_{X2}X1 = -X3/2,
    # nabla_{X1}X3 = nabla_{X3}X1 = -X2/2, nabla_{X2}X3 = nabla_{X3}X2 = X1/2
    half = Fraction(1, 2)
    assert gamma[1][0] == linalg.sparse([0, 0, -half])
    assert gamma[0][1] == linalg.sparse([0, 0, half])
    assert gamma[0][2] == linalg.sparse([0, -half, 0])
    assert gamma[2][0] == linalg.sparse([0, -half, 0])
    assert gamma[1][2] == linalg.sparse([half, 0, 0])
    assert gamma[2][1] == linalg.sparse([half, 0, 0])
    assert gamma[0][0] == linalg.sparse([0, 0, 0])


@pytest.mark.parametrize("name", ["rot7-1-2-3", "kx5", "heisenberg-q",
                                  "rot5-1-1-g"])
def test_levi_civita_entries_are_ints_where_integral(name):
    # rot5-1-1-g has a metric other than the identity; heisenberg-q has
    # Gamma entries of 1/3
    text = pinned_text(name) if name in PINNED else model_texts()[name]
    m = (load_corpus(name) if text is None else loads(text)).to_lie_model()
    entries = [c for row in m.levi_civita() for vec in row
               for c in vec.values()]
    assert entries
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in entries)


def dense_koszul(m):
    """Gamma by the Koszul formula on every index triple:
    2 g(nabla_i X_j, X_k) = low[i][j][k] - low[j][k][i] + low[k][i][j],
    with low[a][b][c] = g([X_a, X_b], X_c), solved with g^-1."""
    n = m.dimension
    ginv = m.metric_inverse()
    low = [[m.flat(m.bracket(a, b)) for b in range(n)] for a in range(n)]
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = {}
            for k in range(n):
                v = low[i][j].get(k, 0) - low[j][k].get(i, 0) \
                    + low[k][i].get(j, 0)
                if v:
                    rhs[k] = Fraction(v, 2)
            gamma[i][j] = {k: linalg.exact(c) for k, c
                           in linalg.mat_vec(ginv, rhs).items()}
    return gamma


def dense_faults(m, gamma) -> set[str]:
    """Which of torsion-freeness and metric compatibility Gamma violates,
    read on every index pair and triple."""
    n = m.dimension
    faults = set()
    for i in range(n):
        for j in range(n):
            if any(gamma[i][j].get(k, 0) - gamma[j][i].get(k, 0)
                   != m.bracket(i, j).get(k, 0) for k in range(n)):
                faults.add("torsion")
    low = [[m.flat(gamma[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if low[i][j].get(k, 0) + low[i][k].get(j, 0):
                    faults.add("metric")
    return faults


@pytest.mark.parametrize("name", sorted({*CORPUS_MODELS, *PINNED}))
def test_levi_civita_matches_the_dense_koszul_formula(name):
    # kx5-p, rot5-1-1-g and heisenberg-g carry metrics other than the
    # identity (kx5-p's is not diagonal)
    text = pinned_text(name) if name in PINNED else None
    m = (load_corpus(name) if text is None else loads(text)).to_lie_model()
    gamma = m.levi_civita()
    assert gamma == dense_koszul(m)
    assert dense_faults(m, gamma) == set()
    # nabla_0 X_1 moved by X_0 breaks torsion-freeness; moving nabla_1 X_0
    # by X_0 as well restores it and breaks only metric compatibility, as
    # g(nabla_1 X_0, X_0) then moves by g(X_0, X_0) > 0
    torsion = [list(row) for row in gamma]
    torsion[0][1] = linalg.combine({0: 1, 1: 1}, [gamma[0][1], {0: 1}])
    metric = [list(row) for row in torsion]
    metric[1][0] = linalg.combine({0: 1, 1: 1}, [gamma[1][0], {0: 1}])
    assert "torsion" in dense_faults(m, torsion)
    with pytest.raises(StructureError, match="not torsion-free"):
        _check_connection(m, torsion)
    assert dense_faults(m, metric) == {"metric"}
    with pytest.raises(StructureError, match="not metric"):
        _check_connection(m, metric)


def test_killing_and_parallel(torus3, heisenberg):
    assert is_killing(torus3, torus3.xi) == (True, None)
    assert is_parallel_form(torus3, torus3.eta_element()) == (True, None)
    assert is_parallel_form(torus3, omega_element(torus3)) == (True, None)
    ok, witness = is_killing(heisenberg, heisenberg.xi)
    assert not ok and witness == "(X2,X3): value -1"
    ok, witness = is_parallel_form(heisenberg, heisenberg.eta_element())
    assert not ok and witness == "nabla_X2: -1/2*e3"


@pytest.mark.parametrize("name, parallel", [("rot7-1-2-3", True),
                                            ("kx5", True),
                                            ("heisenberg", False)])
def test_nabla_xi_is_lie_xi_exactly_when_xi_is_parallel(name, parallel):
    # xi = X1, and nabla_xi Y - L_xi Y = nabla_Y xi (no torsion)
    text = model_texts().get(name)
    m = (load_corpus(name) if text is None else loads(text)).to_lie_model()
    assert (m.nabla()[0] is m.lie_xi()) == parallel


def test_nijenhuis(torus3, torus5, heisenberg):
    assert nijenhuis_normality(torus3) == (True, None)
    assert nijenhuis_normality(torus5) == (True, None)
    ok, witness = nijenhuis_normality(heisenberg)
    assert not ok
    assert "(X1,X2)" in witness and "-X3" in witness


@pytest.mark.parametrize("weight, term", [(11, "-11*X3"),
                                          (Fraction(1, 11), "-1/11*X3")])
def test_normality_witness_keeps_coefficients_ending_in_one(weight, term):
    # only a coefficient of 1 or -1 prints as a bare sign
    m = LieModel(3, {(0, 1): {2: weight}}, xi=[1, 0, 0], eta=[1, 0, 0], J=J0)
    assert nijenhuis_normality(m) == \
        (False, f"[J,J]+2deta(x)xi at (X1,X2) = {term}")


def test_classify_cokahler_tori(torus3, torus5):
    for m in (torus3, torus5):
        verdict = classify(m)
        assert verdict.coKahler and verdict.cosymplectic and verdict.normal
        assert verdict.killing_xi and verdict.parallel_xi
        assert verdict.parallel_eta and verdict.parallel_J
        assert verdict.unimodular


def test_classify_heisenberg(heisenberg):
    verdict = classify(heisenberg)
    assert verdict.cosymplectic
    assert not verdict.normal and not verdict.coKahler
    assert not verdict.killing_xi and not verdict.parallel_xi
    assert not verdict.parallel_eta and not verdict.parallel_J
    assert verdict.witnesses["killing_xi"] == "(X2,X3): value -1"


def test_classify_three_way_equivalence(contact_models):
    for m in contact_models:
        verdict = classify(m)
        assert verdict.coKahler == (verdict.cosymplectic and verdict.normal)
        assert verdict.coKahler == verdict.parallel_J


def test_heisenberg_with_eta_e3_is_not_cosymplectic():
    # d(e3) = -e12 != 0, so the structure with eta = e3 fails cosymplectic
    m = LieModel(3, {(0, 1): {2: 1}}, name="heis-e3", xi=[0, 0, 1],
                 eta=[0, 0, 1], J=[[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert validate_almost_contact(m).ok
    verdict = classify(m)
    assert not verdict.cosymplectic
    assert "d(eta)" in verdict.witnesses


def test_contraction_examples(heisenberg):
    alg = heisenberg.algebra()
    vol = alg.monomial("e1", "e2", "e3")
    assert heisenberg.iota({0: 1}).apply(vol) == alg.monomial("e2", "e3")
    assert heisenberg.iota({1: 1}).apply(vol) == \
        alg.monomial("e1", "e3", coeff=-1)


def test_lie_derivative_example(heisenberg):
    alg = heisenberg.algebra()
    lie = supercommutator(heisenberg.ce().d, heisenberg.iota({0: 1}))
    assert lie.apply(alg.gen("e3")) == -alg.gen("e2")


def test_sharp_and_flat(heisenberg):
    assert heisenberg.sharp({0: 1}) == linalg.sparse([1, 0, 0])
    m = LieModel(2, {}, metric=[[2, 0], [0, 1]])
    assert m.sharp({0: 1}) == linalg.sparse([Fraction(1, 2), 0])
    assert m.flat({0: 1}) == linalg.sparse([2, 0])


def test_iota_squared_zero(contact_models):
    for m in contact_models:
        alg = m.algebra()
        for i in range(m.dimension):
            iota = m.iota({i: Fraction(1)})
            for p in range(alg.top + 1):
                for key in alg.basis(p):
                    mono = Element(alg, p, {key: Fraction(1)})
                    assert iota.apply(iota.apply(mono)).is_zero()


def test_cartan_formula_against_coadjoint_oracle(contact_models):
    # oracle: (L_X e^k)(Y) = -e^k([X, Y]) computed from brackets alone
    for m in contact_models:
        alg = m.algebra()
        for i in range(m.dimension):
            lie = supercommutator(m.ce().d, m.iota({i: Fraction(1)}))
            for k in range(m.dimension):
                want = alg.zero(1)
                for j in range(m.dimension):
                    c = -m.bracket(i, j).get(k, 0)
                    if c:
                        want = want + alg.gen(j).scale(c)
                assert lie.apply(alg.gen(k)) == want


def test_levi_civita_properties(contact_models):
    # torsion-free + metric-compatible are enforced at construction;
    # spot-check the identities directly
    for m in contact_models:
        gamma = m.levi_civita()
        n = m.dimension
        for i in range(n):
            for j in range(n):
                br = m.bracket(i, j)
                for k in range(n):
                    assert gamma[i][j].get(k, 0) - gamma[j][i].get(k, 0) == \
                        br.get(k, 0)


def test_ad_columns_are_brackets():
    # R x_D R^4 with weights 1 and 2: ad(X1) rotates (X2, X3) and (X4, X5)
    m = LieModel(5, {(0, 1): {2: 1}, (0, 2): {1: -1}, (0, 3): {4: 2},
                     (0, 4): {3: -2}})
    x = [Fraction(1), Fraction(2), Fraction(-1, 2), 0, Fraction(3)]
    ad = m.ad(linalg.sparse(x))
    for j in range(5):
        want = [sum(x[i] * m.bracket(i, j).get(k, 0) for i in range(5))
                for k in range(5)]
        assert [ad[k].get(j, 0) for k in range(5)] == want
    assert linalg.mat_vec(ad, {2: 1}) == linalg.sparse([0, -1, 0, 0, 0])
    assert m.ad({1: 1}) == [linalg.sparse(row) for row in (
        [0] * 5, [0] * 5, [-1, 0, 0, 0, 0], [0] * 5, [0] * 5)]


def test_unimodularity():
    assert LieModel(3, {(0, 1): {2: 1}}).is_unimodular()
    # [X1, X2] = X2 has tr(ad_X1) = 1
    assert not LieModel(2, {(0, 1): {1: 1}}).is_unimodular()
