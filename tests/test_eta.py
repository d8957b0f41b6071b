"""d_eta, kernel subcomplexes, splitting, and basic forms.

Kernel bases are cross-checked against sympy nullspaces of the explicit
operator matrices; d_eta values against an independently coded Lie
derivative (coadjoint formula).
"""

import functools
from fractions import Fraction

import pytest
import sympy

from cokahler import cdga, geometry, linalg
from cokahler import eta as eta_module
from cokahler.cdga import Derivation, extend_derivation, supercommutes_with_d
from cokahler.errors import StructureError
from cokahler.eta import (basic_complex, build_d_eta, eta_operator,
                          invariant_forms, kernel_subcomplex, omega_splitting,
                          split_form, splitting_obstruction, verify_basic_match,
                          verify_d_eta_equals_lie, verify_parallel_form_quism)
from cokahler.exterior import Element
from cokahler.geometry import LieModel
from cokahler.lefschetz import splitting_check
from cokahler.modelfile import CORPUS_MODELS, load_corpus, loads
from cokahler.report import build_report, operator_identity_report, run_section
from test_memo import ROT7_123


def oracle_kernel_dims(op, alg):
    dims = []
    for p in range(alg.top + 1):
        n = alg.dim(p)
        mat = [linalg.dense(row, n) for row in op.matrix(p)]
        if n == 0:
            dims.append(0)
            continue
        if not mat:
            dims.append(n)
            continue
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in mat])
        dims.append(n - sm.rank())
    return dims


def test_build_d_eta_torus_is_zero(torus3):
    op = build_d_eta(torus3)
    assert op.rho.degree == -1 and op.d_eta.degree == 0
    assert op.d_eta.is_zero()


def test_build_d_eta_heisenberg(heisenberg):
    op = build_d_eta(heisenberg)
    alg = heisenberg.algebra()
    assert op.d_eta.apply(alg.gen("e3")) == -alg.gen("e2")
    # oracle: with g = id and eta = flat(xi), d_eta acts like L_xi, whose
    # value on e^k is -e^k([X1, .]) by the coadjoint formula
    coad = heisenberg.lie_coadjoint({0: 1})
    for k in range(3):
        assert op.d_eta.apply(alg.gen(k)) == coad.apply(alg.gen(k))


def test_d_eta_degree_bookkeeping_for_two_form(torus5):
    from cokahler.geometry import omega_element
    omega = omega_element(torus5)
    op = eta_operator(torus5, omega)
    assert op.rho.degree == 0 and op.d_eta.degree == 1
    assert op.eta.degree == 2


def test_eta_operator_rejects_foreign_forms(torus3, torus5):
    with pytest.raises(StructureError):
        eta_operator(torus3, torus5.eta_element())


def test_lemma_d_eta_equals_lie(contact_models):
    for m in contact_models:
        assert verify_d_eta_equals_lie(m) is True
        assert run_section(m, "d_eta_equals_lie").record == {
            "equal": True, "degreewise": [True] * (m.ce().top + 1),
            "degree0": True, "degree1": True}


def test_lemma_d_eta_requires_metric_dual():
    m = LieModel(3, {}, xi=[1, 0, 0], eta=[0, 1, 0],
                 J=[[0, 0, -1], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(StructureError):
        verify_d_eta_equals_lie(m)


def test_kernel_subcomplex_torus_is_everything(torus3):
    sub = invariant_forms(torus3)
    assert [sub.dim(p) for p in range(4)] == [1, 3, 3, 1]


def test_kernel_subcomplex_heisenberg_bases(heisenberg):
    sub = invariant_forms(heisenberg)
    alg = heisenberg.algebra()
    assert sub.basis_elements(1) == [alg.gen("e1"), alg.gen("e2")]
    assert sub.basis_elements(2) == [alg.monomial("e1", "e2"),
                                     alg.monomial("e2", "e3")]
    assert oracle_kernel_dims(heisenberg.lie_xi(), alg) == [1, 2, 2, 1]


def test_kernel_of_d_is_cocycles(heisenberg):
    dga = heisenberg.ce()
    sub = kernel_subcomplex(dga, dga.d)
    for p in range(dga.top + 1):
        for elem in sub.basis_elements(p):
            assert dga.d.apply(elem).is_zero()
        assert sub.dim(p) == oracle_kernel_dims(dga.d, dga.algebra)[p]


def test_kernel_subcomplex_rejects_non_chain_operators(heisenberg):
    dga = heisenberg.ce()
    alg = dga.algebra
    bad = extend_derivation(alg, {"e1": alg.gen("e3")}, 0)
    with pytest.raises(StructureError):
        kernel_subcomplex(dga, bad)


def test_omega_splitting_torus3(torus3):
    split = omega_splitting(torus3)
    alg = torus3.algebra()
    assert split.omega1.basis_elements(1) == [alg.gen("e2"), alg.gen("e3")]
    assert split.omega2.basis_elements(1) == [alg.gen("e1")]
    assert split.ok and all(split.direct_sum) and all(split.eta_wedge_match)


def test_omega_splitting_dimensions(contact_models):
    for m in contact_models:
        split = omega_splitting(m)
        top = m.ce().top
        for p in range(1, top + 1):
            assert split.omega1.dim(p) + split.omega2.dim(p) == \
                split.omega_eta.dim(p)
            stacked = [dict(r) for r in split.omega1.basis_vectors(p)] + \
                      [dict(r) for r in split.omega2.basis_vectors(p)]
            if stacked:
                assert linalg.rank(stacked) == len(stacked)


def test_omega2_is_eta_wedge_omega1(contact_models):
    for m in contact_models:
        split = omega_splitting(m)
        eta = m.eta_element()
        for p in range(1, m.ce().top + 1):
            wedge_span = [m.ce().coords(p, eta.wedge(
                split.omega1.element(p - 1, row)))
                for row in [{t: Fraction(1)}
                            for t in range(split.omega1.dim(p - 1))]]
            assert linalg.Span(wedge_span) == linalg.Span(
                [dict(r) for r in split.omega2.basis_vectors(p)])


def test_split_form_examples(torus3, torus5):
    alg = torus3.algebra()
    pair = split_form(torus3, alg.gen("e1") + alg.gen("e2"))
    assert pair.alpha1 == alg.gen("e2")
    assert pair.alpha2 == alg.gen("e1")
    assert pair.total == alg.gen("e1") + alg.gen("e2")
    alg5 = torus5.algebra()
    pair5 = split_form(torus5, alg5.monomial("e2", "e3"))
    assert pair5.alpha1 == alg5.monomial("e2", "e3")
    assert pair5.alpha2.is_zero()


def test_split_form_invariants(heisenberg):
    alg = heisenberg.algebra()
    for elem in (alg.gen("e1"), alg.monomial("e1", "e2"),
                 alg.monomial("e1", "e2") + alg.monomial("e2", "e3")):
        pair = split_form(heisenberg, elem)
        assert heisenberg.iota(heisenberg.xi).apply(pair.alpha1).is_zero()
        assert heisenberg.eta_element().wedge(pair.alpha2).is_zero()
        assert pair.total == elem


def test_basic_complex_torus3(torus3):
    basic = basic_complex(torus3)
    alg = torus3.algebra()
    assert basic.basis_elements(1) == [alg.gen("e2"), alg.gen("e3")]
    assert basic.dim(3) == 0                    # iota_xi(vol) != 0


def test_basic_complex_heisenberg(heisenberg):
    basic = basic_complex(heisenberg)
    alg = heisenberg.algebra()
    # e3 is excluded: iota_X1 d(e3) = -e2; e1 is excluded: iota_X1 e1 = 1
    assert basic.basis_elements(1) == [alg.gen("e2")]
    assert basic.dim(3) == 0


def test_basic_equals_omega1(contact_models):
    for m in contact_models:
        report = verify_basic_match(m)
        assert report.equal
        binding = [r["check"] for r in run_section(m, "splitting").asserted]
        assert ("omega1_equals_basic" in binding) == \
            (m.name in ("torus3", "torus5"))


def test_basic_match_compares_spans_not_dimensions(torus3, monkeypatch):
    # a complex with Omega_1's dimension in every degree, but spanned by
    # e1, e3 and e1^e3 instead of e2, e3 and e2^e3, must not match
    dga = torus3.ce()
    e1, _, e3 = torus3.algebra().gens()
    other = cdga.Subcomplex(dga, {
        0: [{0: 1}], 1: [dga.coords(1, e1), dga.coords(1, e3)],
        2: [dga.coords(2, e1.wedge(e3))]})
    omega1 = omega_splitting(torus3).omega1
    assert [other.dim(p) for p in range(4)] == \
        [omega1.dim(p) for p in range(4)]
    monkeypatch.setattr(eta_module, "basic_complex", lambda m: other)
    report = verify_basic_match(torus3)
    assert report.per_degree == [True, False, False, True]
    assert not report.equal


def test_parallel_form_quism_tori(cokahler_models):
    for m in cokahler_models:
        report = verify_parallel_form_quism(m)
        assert report.eta_parallel
        assert all(report.degreewise_iso) and report.conclusion
        sec = run_section(m, "parallel_form_quism")
        assert [(r["check"], r["ok"]) for r in sec.asserted] == \
            [("parallel_form_quism", True)]


def test_parallel_form_quism_heisenberg(heisenberg):
    report = verify_parallel_form_quism(heisenberg)
    assert not report.eta_parallel
    assert report.degreewise_iso == [True, True, False, True]
    assert not report.conclusion
    sec = run_section(heisenberg, "parallel_form_quism")
    assert sec.asserted == []        # informational: hypothesis fails
    assert sec.hypothesis.startswith("eta not parallel")
    assert report.kernel_witnesses[2] == ["e1^e2"]
    # oracle: the induced H^2 matrix has rank 1 although both sides have dim 2
    assert report.ranks[2] == 1
    assert report.sub_betti == (1, 2, 2, 1) and report.full_betti == (1, 2, 2, 1)


def test_d_eta_supercommutes_and_is_a_derivation(contact_models):
    for m in contact_models:
        op = build_d_eta(m)
        assert supercommutes_with_d(m.ce(), op.d_eta)
        assert op.d_eta.leibniz_failure is None
        assert op.rho.leibniz_failure is None


OPERATOR_RECORDS = ("iota_squared_zero", "cartan_formula", "d_squared_zero",
                    "leibniz_d", "leibniz_operators",
                    "d_eta_supercommutes_with_d")


def rot5_1_2():
    """R x| R^4 with ad X1 rotating (X2, X3) with weight 1 and (X4, X5) with
    weight 2: co-Kahler with d != 0 and L_xi != 0."""
    J = [[0, 0, 0, 0, 0], [0, 0, -1, 0, 0], [0, 1, 0, 0, 0],
         [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]]
    return LieModel(5, {(0, 1): {2: 1}, (0, 2): {1: -1},
                        (0, 3): {4: 2}, (0, 4): {3: -2}}, name="rot5-1-2",
                    xi=[1, 0, 0, 0, 0], eta=[1, 0, 0, 0, 0], J=J)


def test_operator_identities_on_rot5():
    m = rot5_1_2()
    assert not m.ce().d.is_zero() and not m.lie_xi().is_zero()
    sec = run_section(m, "operator_identities")
    assert sec.record == {key: True for key in OPERATOR_RECORDS}
    assert [a["check"] for a in sec.asserted] == list(OPERATOR_RECORDS)
    assert all(a["ok"] for a in sec.asserted)


def test_operator_identities_see_a_broken_lie_xi():
    # L_xi is one shared operator: the coadjoint derivative along xi = X1 is
    # L_xi, and so is d_eta when eta is the dual of xi
    def broken_lie_xi(m):
        lie = m.lie_xi()
        alg = m.algebra()
        key = alg.monomial("e2", "e3", "e4").terms.popitem()[0]
        extra = alg.monomial("e2", "e3", "e5")
        honest = lie.image

        def broken(k):
            out = honest(k)
            if k != key:
                return out
            return (Element(alg, 3, out) + extra).terms

        lie.image = broken
        assert m.lie_xi() is lie and m.lie_coadjoint({0: 1}) is lie
        return lie

    m = rot5_1_2()
    lie = broken_lie_xi(m)
    # eta_operator builds {d, rho_eta}, which is the broken L_xi, and
    # refuses it on the Leibniz premise
    with pytest.raises(StructureError, match="d_eta does not supercommute"):
        run_section(m, "operator_identities")
    assert lie.leibniz_failure == m.algebra().monomial("e2", "e3", "e4")
    # with eta = e1 + e2, d_eta is L along X1 + X2 and keeps its own table:
    # the fault reaches the Leibniz and Cartan verdicts only
    J = [[0, 0, 0, 0, 0], [0, 0, -1, 0, 0], [0, 1, 0, 0, 0],
         [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]]
    m = LieModel(5, m.brackets, name="rot5-1-2-eta", xi=[1, 0, 0, 0, 0],
                 eta=[1, 1, 0, 0, 0], J=J)
    broken_lie_xi(m)
    assert build_d_eta(m).d_eta is not m.lie_xi()
    record = run_section(m, "operator_identities").record
    assert record["leibniz_operators"] is False
    assert record["cartan_formula"] is False
    assert all(record[name] for name in OPERATOR_RECORDS
               if name not in ("leibniz_operators", "cartan_formula"))


def test_operator_identities_see_a_wrong_coadjoint_derivative(monkeypatch):
    # Cartan's verdict compares {d, iota_X} with lie_coadjoint(X); make the
    # latter wrong on the generator e3 for every X
    honest = LieModel.lie_coadjoint

    def wrong(self, vector):
        der = honest(self, vector)
        alg = self.algebra()
        images = dict(der.images)
        images[2] = der.image_of(2) + alg.gen("e5")
        return Derivation(alg, 0, images, name="L_wrong")

    m = rot5_1_2()
    assert operator_identity_report(m).record["cartan_formula"] is True
    monkeypatch.setattr(LieModel, "lie_coadjoint", wrong)
    record = operator_identity_report(m).record
    assert record["cartan_formula"] is False
    assert all(record[name] for name in OPERATOR_RECORDS
               if name != "cartan_formula")


def test_cartan_compares_generator_images_not_objects(monkeypatch):
    # a correct coadjoint derivative that is its own Derivation, not the
    # shared L_xi, still equals {d, iota_xi}
    honest = LieModel.lie_coadjoint

    def unshared(self, vector):
        der = honest(self, vector)
        return Derivation(der.algebra, 0, der.images, name="L_unshared")

    monkeypatch.setattr(LieModel, "lie_coadjoint", unshared)
    m = rot5_1_2()
    assert m.lie_coadjoint(m.xi) is not m.lie_xi()
    record = operator_identity_report(m).record
    assert record == {key: True for key in OPERATOR_RECORDS}


def test_report_builds_one_supercommutator_per_memoized_operator(monkeypatch):
    # L_xi and d_eta are built by one supercommutator each, and as eta is
    # the dual of xi, rho_eta is iota_xi and both hand out one operator; the
    # Cartan check composes d and iota_X directly
    honest = cdga.supercommutator
    calls = []

    def counted(f, g):
        out = honest(f, g)
        calls.append((f, g, out))
        return out

    for module in (cdga, geometry, eta_module):
        monkeypatch.setattr(module, "supercommutator", counted)
    assert build_report(load_corpus("torus5"))["ok"]
    (d, iota_xi, lie_xi), (d_again, rho, d_eta) = calls
    assert d is d_again and d.name == "d"
    assert rho is iota_xi and d_eta is lie_xi


def test_report_computes_one_leibniz_verdict_per_derivation(monkeypatch):
    # one verdict per distinct operator: on rot7-1-2-3, d and iota_xi (the
    # premise of L_xi = {d, iota_xi}), then L_xi; iota_xi and L_xi are also
    # rho_eta and d_eta.  The model's construction decides Jacobi on d's
    # generator images, without d's verdict
    honest = Derivation.leibniz_failure.func
    checked = []

    def counted(der):
        checked.append(der)
        return honest(der)

    verdict = functools.cached_property(counted)
    verdict.__set_name__(Derivation, "leibniz_failure")
    monkeypatch.setattr(Derivation, "leibniz_failure", verdict)
    mf = loads(ROT7_123)
    m = mf.to_lie_model()
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    assert build_report(mf)["ok"]
    op = build_d_eta(m)
    assert checked == [m.ce().d, m.iota_xi(), m.lie_xi()]
    assert (op.rho, op.d_eta) == (m.iota_xi(), m.lie_xi())
    assert [der.name for der in checked] == ["d", "iota", "{d,iota}"]


def test_kernel_subcomplex_is_kept_per_operator(heisenberg):
    # the coadjoint derivatives along X1, X2 and X3 share one name but not
    # one kernel; a direct Derivation with L_X1's images gets its own entry
    dga, alg = heisenberg.ce(), heisenberg.algebra()
    ops = [heisenberg.lie_coadjoint({i: 1}) for i in range(3)]
    assert len({op.name for op in ops}) == 1
    kernels = [kernel_subcomplex(dga, op) for op in ops]
    for op, sub in zip(ops, kernels):
        assert kernel_subcomplex(dga, op) is sub
        assert [sub.dim(p) for p in range(4)] == oracle_kernel_dims(op, alg)
    assert [kernels[i].dim(1) for i in range(3)] == [2, 2, 3]
    twin = Derivation(alg, 0, ops[0].images, ops[0].name)
    assert kernel_subcomplex(dga, twin) is not kernels[0]
    assert set(dga.kernels) >= {*ops, twin}


def heis5():
    """5-dim Heisenberg [X2, X3] = X1 = [X4, X5] with xi = X1, eta = e1:
    d(eta) = -e2^e3 - e4^e5 is not zero."""
    J = [[0, 0, 0, 0, 0], [0, 0, -1, 0, 0], [0, 1, 0, 0, 0],
         [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]]
    return LieModel(5, {(1, 2): {0: 1}, (3, 4): {0: 1}}, name="heis5",
                    xi=[1, 0, 0, 0, 0], eta=[1, 0, 0, 0, 0], J=J)


def test_splitting_states_that_d_eta_is_not_zero():
    m = heis5()
    note = splitting_obstruction(m)
    assert note.startswith("d(eta) = ") and note.endswith(
        "so no splitting is computed")
    for call in (omega_splitting, verify_basic_match, splitting_check):
        with pytest.raises(StructureError, match=r"d\(eta\)") as info:
            call(m)
        assert str(info.value) == note
    assert run_section(m, "splitting").hypothesis == note
    assert splitting_obstruction(rot5_1_2()) is None


def test_splitting_states_that_eta_of_xi_is_not_one():
    # eta = e2 on the flat 5-torus: iota_xi and eta ^ do not split the forms
    m = LieModel(5, {}, name="eta-off-xi", xi=[1, 0, 0, 0, 0],
                 eta=[0, 1, 0, 0, 0])
    note = splitting_obstruction(m)
    assert note == "eta(xi) = 0 is not 1, so no splitting is computed"
    with pytest.raises(StructureError) as info:
        omega_splitting(m)
    assert str(info.value) == note


def test_kx5_is_co_kahler_with_a_differential_on_omega1():
    # [X2, X4] = X5 and [X2, X5] = -X4 leave xi = X1 out, so d does not
    # vanish on Omega_1 and every binding verdict meets a differential there
    mf = load_corpus("kx5")
    m = mf.to_lie_model()
    assert geometry.classify(m).coKahler
    report = build_report(mf)
    assert [r["ok"] for r in report["asserted"]] == [True] * 16
    assert report["notes"] == []
    assert report["model"]["betti"] == [1, 3, 4, 4, 3, 1]
    omega1 = omega_splitting(m).omega1
    for p in (1, 2):
        assert any(bool(row) for row in omega1.d_matrix(p))


def eta_wedge_matrix(m, p):
    """The matrix of alpha -> eta ^ alpha out of degree p."""
    alg, eta = m.algebra(), m.eta_element()
    cols = [alg.coords(eta.wedge(Element(alg, p, {key: 1})))
            for key in alg.basis(p)]
    return linalg.transpose(cols, alg.dim(p + 1))


@pytest.mark.parametrize("name",
                         ["kx5", "kx7", "rot7-1-2-3", "rot5-1-1-g", "torus5"])
def test_omega1_and_omega2_are_the_kernels_in_omega_eta(name):
    # the spans of alpha1 and alpha2 over Omega_eta are ker iota_xi and
    # ker(eta ^) inside Omega_eta, each taken here by kernel_basis on the
    # operator matrices stacked under L_xi's
    from test_report_bytes import pinned_text
    mf = load_corpus(name) if name in CORPUS_MODELS else loads(
        ROT7_123 if name == "rot7-1-2-3" else pinned_text(name))
    m = mf.to_lie_model()
    split, alg, lie = omega_splitting(m), m.algebra(), m.lie_xi()
    for p in range(alg.top + 1):
        n = alg.dim(p)
        ker_iota = linalg.kernel_basis(
            lie.matrix(p) + m.iota_xi().matrix(p), n)
        ker_eta = linalg.kernel_basis(lie.matrix(p) + eta_wedge_matrix(m, p),
                                      n)
        assert split.omega1.span(p) == linalg.Span(ker_iota)
        assert split.omega2.span(p) == linalg.Span(ker_eta)
    assert split.omega2.dim(0) == 0 and split.omega2.dim(1) == 1


def test_d_eta_equals_lie_raises_on_distinct_operators(monkeypatch):
    # a d_eta built apart from L_xi, even with L_xi's generator images, is
    # a construction inconsistency
    m = rot5_1_2()
    lie = m.lie_xi()
    honest = build_d_eta(m)
    twin = Derivation(m.algebra(), 0, lie.images, name="L_direct")
    forged = eta_module.EtaOperator(honest.eta, honest.rho, twin)
    monkeypatch.setattr(eta_module, "build_d_eta", lambda model: forged)
    with pytest.raises(StructureError, match="distinct operators"):
        verify_d_eta_equals_lie(m)
    monkeypatch.undo()
    assert verify_d_eta_equals_lie(m) is True


def test_d_eta_equals_lie_makes_no_pass_over_the_basis(monkeypatch):
    # with d_eta and L_xi built, the section decides the lemma on the
    # operators' identity and reads no basis monomial
    m = rot5_1_2()
    build_d_eta(m)

    def no_pass(self, p):
        raise AssertionError(f"basis of degree {p} read")

    monkeypatch.setattr(type(m.algebra()), "basis", no_pass)
    sec = run_section(m, "d_eta_equals_lie")
    assert sec.record == {"equal": True, "degreewise": [True] * 6,
                          "degree0": True, "degree1": True}
    assert [(a["check"], a["ok"]) for a in sec.asserted] == \
        [("d_eta_equals_lie", True)]
