"""d_eta, kernel subcomplexes, splitting, and basic forms.

Kernel bases are cross-checked against sympy nullspaces of the explicit
operator matrices; d_eta values against an independently coded Lie
derivative (coadjoint formula).
"""

import functools
import hashlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings

from cokahler import cdga, geometry, linalg, render_json
from cokahler import eta as eta_module
from cokahler.cdga import Derivation, Subcomplex, supercommutes_with_d
from cokahler.cohomology import CohomologyRing, induced_map
from cokahler.errors import StructureError
from cokahler.eta import (basic_complex, build_d_eta, eta_operator,
                          invariant_forms, kernel_subcomplex, omega_splitting,
                          splitting_obstruction, verify_basic_match,
                          verify_d_eta_equals_lie, verify_parallel_form_quism)
from cokahler.exterior import Element
from cokahler.geometry import LieModel
from cokahler.lefschetz import splitting_check
from cokahler.modelfile import CORPUS_MODELS, load_corpus, loads
from cokahler.report import build_report, operator_identity_report, run_section
from omega_oracle import Oracle
from test_generated_models import (family_text, structured_model_text,
                                   transverse_weights)
from test_memo import ROT7_123
from test_report_bytes import PINNED, perfbench_models, pinned_text


def basis(cx, p):
    """The basis forms of a complex in degree p."""
    return [cx.element(p, {j: 1}) for j in range(cx.dim(p))]


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
    assert all(img.is_zero() for img in op.d_eta.images.values())


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
        sec = run_section(m, "d_eta_equals_lie")
        assert sec.record is None
        assert [(a["check"], a["ok"]) for a in sec.asserted] == \
            [("d_eta_equals_lie", True)]


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
    assert basis(sub, 1) == [alg.gen("e1"), alg.gen("e2")]
    assert basis(sub, 2) == [alg.monomial("e1", "e2"),
                             alg.monomial("e2", "e3")]
    assert oracle_kernel_dims(heisenberg.lie_xi(), alg) == [1, 2, 2, 1]


def test_kernel_of_d_is_cocycles(heisenberg):
    dga = heisenberg.ce()
    sub = kernel_subcomplex(dga, dga.d)
    for p in range(dga.top + 1):
        for elem in basis(sub, p):
            assert dga.d.apply(elem).is_zero()
        assert sub.dim(p) == oracle_kernel_dims(dga.d, dga.algebra)[p]


def test_kernel_subcomplex_rejects_non_chain_operators(heisenberg, torus3):
    dga = heisenberg.ce()
    alg = dga.algebra
    bad = Derivation(alg, 0, {0: alg.gen("e3")})
    with pytest.raises(StructureError):
        kernel_subcomplex(dga, bad)
    # a zero operator on another algebra is refused, not read as zero here
    with pytest.raises(StructureError, match="different algebras"):
        kernel_subcomplex(dga, Derivation(torus3.algebra(), 0, {}))


def eta_wedge_matrix(m, p):
    """The matrix of alpha -> eta ^ alpha out of degree p."""
    alg, eta = m.algebra(), m.eta_element()
    cols = [alg.coords(eta.wedge(Element(alg, p, {key: 1})))
            for key in alg.basis(p)]
    return linalg.transpose(cols, alg.dim(p + 1))


def eta_wedge_omega1(m, p):
    """Omega_2^p = eta ^ Omega_1^{p-1}: eta ^ on the rows of Omega_1, in
    Omega^p coordinates (no rows in degree 0)."""
    if p == 0:
        return []
    wedge = eta_wedge_matrix(m, p - 1)
    return [linalg.mat_vec(wedge, row)
            for row in omega_splitting(m).basis_vectors(p - 1)]


def test_omega_splitting_torus3(torus3):
    omega1 = omega_splitting(torus3)
    alg = torus3.algebra()
    assert basis(omega1, 1) == [alg.gen("e2"), alg.gen("e3")]
    assert linalg.Span(eta_wedge_omega1(torus3, 1)) == linalg.Span(
        [alg.coords(alg.gen("e1"))])
    assert eta_wedge_omega1(torus3, 0) == []


def test_omega_splitting_dimensions(contact_models):
    # Omega_1 and eta ^ Omega_1 together are a basis of Omega_eta: their
    # rows lie in ker L_xi, are independent, and are dim Omega_eta^p many
    for m in contact_models:
        omega1 = omega_splitting(m)
        for p in range(m.ce().top + 1):
            stacked = [dict(r) for r in omega1.basis_vectors(p)] + \
                eta_wedge_omega1(m, p)
            assert linalg.rank(stacked) == len(stacked) == \
                invariant_forms(m).dim(p)
            assert not any(linalg.mat_vec(m.lie_xi().matrix(p), row)
                           for row in stacked)


def test_omega2_is_eta_wedge_omega1(contact_models):
    # eta ^ by the matrix and by Element.wedge span one space, whose rank
    # is the report's omega1_dims one degree down
    for m in contact_models:
        omega1 = omega_splitting(m)
        eta = m.eta_element()
        record = run_section(m, "splitting").record
        for p in range(m.ce().top + 1):
            by_element = [m.ce().coords(p, eta.wedge(
                omega1.element(p - 1, {t: Fraction(1)})))
                for t in range(omega1.dim(p - 1))] if p else []
            by_matrix = eta_wedge_omega1(m, p)
            assert linalg.Span(by_element) == linalg.Span(by_matrix)
            assert (record["omega1_dims"][p - 1] if p else 0) == \
                linalg.rank(by_matrix)


def test_basic_complex_torus3(torus3):
    basic = basic_complex(torus3)
    alg = torus3.algebra()
    assert basis(basic, 1) == [alg.gen("e2"), alg.gen("e3")]
    assert basic.dim(3) == 0                    # iota_xi(vol) != 0


def test_basic_complex_heisenberg(heisenberg):
    basic = basic_complex(heisenberg)
    alg = heisenberg.algebra()
    # e3 is excluded: iota_X1 d(e3) = -e2; e1 is excluded: iota_X1 e1 = 1
    assert basis(basic, 1) == [alg.gen("e2")]
    assert basic.dim(3) == 0


def test_basic_equals_omega1(contact_models):
    for m in contact_models:
        assert verify_basic_match(m) is True
        assert omega_splitting(m) is basic_complex(m)
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
    omega1 = omega_splitting(torus3)
    assert [other.dim(p) for p in range(4)] == \
        [omega1.dim(p) for p in range(4)]
    monkeypatch.setattr(eta_module, "basic_complex", lambda m: other)
    with pytest.raises(StructureError, match="construction inconsistency"):
        verify_basic_match(torus3)


def test_splitting_names_each_degree_the_sum_misses(monkeypatch):
    # an Omega_1 spanned by 1 and e2 alone is closed under d on torus3, but
    # with its eta-multiples it misses the invariant forms in degrees 1-3
    m = load_corpus("torus3").to_lie_model()
    dga = m.ce()
    small = cdga.Subcomplex(dga, {0: [{0: 1}],
                                  1: [dga.coords(1, m.algebra().gen("e2"))]})
    monkeypatch.setattr(eta_module, "basic_complex", lambda model: small)
    with pytest.raises(StructureError) as info:
        omega_splitting(m)
    assert str(info.value) == (
        "Omega_1 + eta ^ Omega_1 is not the invariant forms; failing degrees "
        "1 (dim Omega_eta 3, dim Omega_1 + eta ^ Omega_1 2), "
        "2 (dim Omega_eta 3, dim Omega_1 + eta ^ Omega_1 1), "
        "3 (dim Omega_eta 1, dim Omega_1 + eta ^ Omega_1 0)")


# the splitting section's records, pinned: (omega_eta_dims, omega1_dims,
# betti_eta, betti_omega1); cohomology_split is all true
SPLITTING_RECORDS = {
    "torus5": ([1, 5, 10, 10, 5, 1], [1, 4, 6, 4, 1, 0],
               [1, 5, 10, 10, 5, 1], [1, 4, 6, 4, 1, 0]),
    "kx5": ([1, 5, 10, 10, 5, 1], [1, 4, 6, 4, 1, 0],
            [1, 3, 4, 4, 3, 1], [1, 2, 2, 2, 1, 0]),
    "rot7-1-2-3": ([1, 1, 3, 5, 5, 3, 1, 1], [1, 0, 3, 2, 3, 0, 1, 0],
                   [1, 1, 3, 5, 5, 3, 1, 1], [1, 0, 3, 2, 3, 0, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(SPLITTING_RECORDS))
def test_splitting_needs_no_split_pass(name, monkeypatch):
    # Omega_1 is the basic complex and Omega_2 is eta ^ Omega_1: the section
    # reads no basis of Omega_eta form by form and computes each degree of
    # H(Omega_1) once, for betti_omega1
    m = (loads(ROT7_123) if name == "rot7-1-2-3" else
         load_corpus(name)).to_lie_model()
    omega_eta, omega1, betti_eta, betti1 = SPLITTING_RECORDS[name]

    def refused(*args):
        raise AssertionError("the splitting read a form one by one")

    fills, honest = [], CohomologyRing._slice

    def counted(ring, p):
        if p not in ring._slices:
            fills.append((ring.complex, p))
        return honest(ring, p)

    monkeypatch.setattr(cdga.Subcomplex, "element", refused)
    monkeypatch.setattr(CohomologyRing, "_slice", counted)
    sec = run_section(m, "splitting")
    top = m.ce().top
    assert sec.record == {
        "omega_eta_dims": omega_eta, "omega1_dims": omega1,
        "betti_eta": betti_eta, "betti_omega1": betti1,
        "cohomology_split": [True] * (top + 1)}
    assert list(basic_complex(m).betti()) == betti1
    assert [(a["check"], a["ok"]) for a in sec.asserted] == [
        ("omega_splitting", True), ("omega1_equals_basic", True),
        ("cohomology_splitting", True)]
    basic = basic_complex(m)
    assert omega_splitting(m) is basic
    like_omega1 = [cx for cx, p in fills if cx is not m.ce() and all(
        cx.dim(q) == basic.dim(q) for q in range(top + 1))]
    degrees = [p for cx, p in fills if cx is basic]
    assert all(cx is basic for cx in like_omega1)
    assert set(range(top + 1)) <= set(degrees)


def test_parallel_form_quism_tori(cokahler_models):
    for m in cokahler_models:
        report = verify_parallel_form_quism(m)
        assert report.eta_parallel
        assert all(report.degreewise_iso) and report.quasi_isomorphism
        sec = run_section(m, "parallel_form_quism")
        assert [(r["check"], r["ok"]) for r in sec.asserted] == \
            [("parallel_form_quism", True)]


def test_parallel_form_quism_heisenberg(heisenberg):
    report = verify_parallel_form_quism(heisenberg)
    assert not report.eta_parallel
    assert report.degreewise_iso == [True, True, False, True]
    assert not report.quasi_isomorphism
    sec = run_section(heisenberg, "parallel_form_quism")
    assert sec.asserted == []        # informational: hypothesis fails
    assert sec.hypothesis.startswith("eta not parallel")
    assert report.kernel_witnesses[2] == ["e1^e2"]
    # oracle: the induced H^2 matrix has rank 1 although both sides have dim 2
    assert report.ranks[2] == 1
    assert report.betti_kernel == [1, 2, 2, 1]
    assert heisenberg.ce().cohomology().betti() == (1, 2, 2, 1)


def test_d_eta_supercommutes_and_is_a_derivation(contact_models):
    for m in contact_models:
        op = build_d_eta(m)
        assert supercommutes_with_d(m.ce(), op.d_eta)
        assert op.d_eta.leibniz_failure is None
        assert op.rho.leibniz_failure is None


OPERATOR_CHECKS = ("iota_squared_zero", "cartan_formula", "d_squared_zero",
                   "leibniz_d", "leibniz_operators",
                   "d_eta_supercommutes_with_d")


def verdicts(sec) -> dict:
    """A section's asserted verdicts, by check name; the operator-identity
    section writes no record, so its verdicts are read here."""
    return {a["check"]: a["ok"] for a in sec.asserted}


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
    for op in (m.ce().d, m.lie_xi()):
        assert not all(img.is_zero() for img in op.images.values())
    sec = run_section(m, "operator_identities")
    assert sec.record is None
    assert [a["check"] for a in sec.asserted] == list(OPERATOR_CHECKS)
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

    # with eta = e1, d_eta = {d, rho_eta} is the broken L_xi; with eta =
    # e1 + e2, d_eta is L along X1 + X2 and keeps its own table.  {d, d_eta}
    # = 0 is decided on generators, where L_xi is honest, so either way the
    # fault reaches the Leibniz and Cartan verdicts only
    J = [[0, 0, 0, 0, 0], [0, 0, -1, 0, 0], [0, 1, 0, 0, 0],
         [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]]
    dual = rot5_1_2()
    off_dual = LieModel(5, dual.brackets, name="rot5-1-2-eta",
                        xi=[1, 0, 0, 0, 0], eta=[1, 1, 0, 0, 0], J=J)
    for m in (dual, off_dual):
        lie = broken_lie_xi(m)
        assert (build_d_eta(m).d_eta is lie) == (m is dual)
        ok = verdicts(run_section(m, "operator_identities"))
        assert lie.leibniz_failure == m.algebra().monomial("e2", "e3", "e4")
        assert ok["leibniz_operators"] is False
        assert ok["cartan_formula"] is False
        assert all(ok[name] for name in OPERATOR_CHECKS
                   if name not in ("leibniz_operators", "cartan_formula"))


def test_operator_identities_see_a_wrong_coadjoint_derivative(monkeypatch):
    # Cartan's verdict compares {d, iota_X} with lie_coadjoint(X); make the
    # latter wrong on the generator e3 for every X
    honest = LieModel.lie_coadjoint

    def wrong(self, vector):
        der = honest(self, vector)
        alg = self.algebra()
        images = dict(der.images)
        images[2] = images.get(2, alg.zero(1)) + alg.gen("e5")
        return Derivation(alg, 0, images, name="L_wrong")

    m = rot5_1_2()
    assert verdicts(operator_identity_report(m))["cartan_formula"] is True
    monkeypatch.setattr(LieModel, "lie_coadjoint", wrong)
    ok = verdicts(operator_identity_report(m))
    assert ok["cartan_formula"] is False
    assert all(ok[name] for name in OPERATOR_CHECKS
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
    assert verdicts(operator_identity_report(m)) == \
        {key: True for key in OPERATOR_CHECKS}


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
    # one verdict per distinct operator, all in the report's records: on
    # rot7-1-2-3, d, iota_xi and L_xi; iota_xi and L_xi are also rho_eta and
    # d_eta.  The model's construction decides Jacobi on d's generator
    # images, without d's verdict.  xi = X1 is parallel, so L_xi is
    # the nabla_X1 that the classification built first, under that name
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
    assert [der.name for der in checked] == ["d", "iota", "nabla_X1"]


def test_kernel_subcomplex_is_the_kernel_of_each_operator(heisenberg):
    # the coadjoint derivatives along X1, X2 and X3 share one name but not
    # one kernel.  X3 is central, so L_X3 is zero and its kernel is the
    # complex itself.  No kernel is kept: each call builds its own, and
    # Omega_eta is built once per model, by invariant_forms
    dga, alg = heisenberg.ce(), heisenberg.algebra()
    ops = [heisenberg.lie_coadjoint({i: 1}) for i in range(3)]
    assert len({op.name for op in ops}) == 1
    kernels = [kernel_subcomplex(dga, op) for op in ops]
    for op, sub in zip(ops, kernels):
        assert [sub.dim(p) for p in range(4)] == oracle_kernel_dims(op, alg)
    assert [kernels[i].dim(1) for i in range(3)] == [2, 2, 3]
    assert kernels[2] is dga and kernels[0] is not dga is not kernels[1]
    assert kernel_subcomplex(dga, ops[0]) is not kernels[0]
    assert kernel_subcomplex(dga, ops[2]) is dga
    assert invariant_forms(heisenberg) is invariant_forms(heisenberg)


# the corpus and pinned models whose xi is central: L_xi is zero in every
# degree, so ker(d_eta) is the full complex itself
CENTRAL_XI = ("kx5", "kx5-eta", "kx5-p", "kx5-q", "kx7", "rxaff3", "rxaff5",
              "rxch2", "rxkt5", "torus3", "torus5", "torus5-eta", "torus7",
              "torus9")


def pinned_or_corpus(name):
    text = pinned_text(name) if name in PINNED else None
    return (load_corpus(name) if text is None else loads(text)).to_lie_model()


def lie_xi_is_zero(m):
    return not any(any(m.lie_xi().matrix(p)) for p in range(m.ce().top + 1))


def test_central_xi_lists_every_model_with_zero_lie_derivative():
    with_xi = [m for m in map(pinned_or_corpus,
                              sorted({*CORPUS_MODELS, *PINNED}))
               if m.xi is not None]
    assert tuple(m.name for m in with_xi if lie_xi_is_zero(m)) == CENTRAL_XI


@pytest.mark.parametrize("name", CENTRAL_XI)
def test_the_whole_complex_matches_the_kernel_of_a_zero_lie_derivative(name):
    # oracle: the unit-row kernel subcomplex and the inclusion push, as a
    # nonzero L_xi takes them, against the report's records
    m = pinned_or_corpus(name)
    ce = m.ce()
    assert invariant_forms(m) is ce and kernel_subcomplex(ce, m.lie_xi()) is ce
    sub = Subcomplex.kernel_of(ce, m.lie_xi().columns, 0)
    maps = [induced_map(sub, p, ce, p, functools.partial(sub.parent_coords, p))
            for p in range(ce.top + 1)]
    quism = run_section(m, "parallel_form_quism").record
    assert quism["ranks"] == [ind.rank for ind in maps]
    assert quism["degreewise_iso"] == [ind.isomorphism for ind in maps]
    assert quism["betti_kernel"] == list(sub.betti())
    assert quism["kernel_witnesses"] == {}
    split = run_section(m, "splitting").record
    assert split["omega_eta_dims"] == [sub.dim(p) for p in range(ce.top + 1)]


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
    omega1 = omega_splitting(m)
    for p in (1, 2):
        assert any(bool(row) for row in omega1.d_matrix(p))


@pytest.mark.parametrize("name", sorted({*PINNED, "rot7-1-2-3"}))
def test_omega1_and_omega2_are_the_kernels_in_omega_eta(name):
    # Omega_1 and Omega_2 = eta ^ Omega_1 are ker iota_xi and ker(eta ^)
    # inside Omega_eta, each taken here by kernel_span on the operator
    # matrices stacked under L_xi's, on all of Omega: the reference for
    # basic_complex, which takes L_xi's kernel on the fibre (or iota_xi's on
    # Omega_eta's basis where xi is off the basis vectors' lines).  Every
    # pinned model has its splitting computed.  On kx5-eta, kx5-p and
    # torus5-eta, eta is not e1, so Omega_2 is not spanned by the monomials
    # that contain e1; on rot7-1-2-3-conj xi is not X1 either, so Omega_1
    # is not spanned by the monomials without e1.  The report records
    # Omega_1's dimensions, and Omega_2's are Omega_1's one degree down.
    m = loads(ROT7_123).to_lie_model() if name == "rot7-1-2-3" else \
        pinned_or_corpus(name)
    omega1, alg, lie = omega_splitting(m), m.algebra(), m.lie_xi()
    record = run_section(m, "splitting").record
    for p in range(alg.top + 1):
        n = alg.dim(p)
        ker_iota = linalg.kernel_span(
            lie.matrix(p) + m.iota_xi().matrix(p), n)
        ker_eta = linalg.kernel_span(lie.matrix(p) + eta_wedge_matrix(m, p), n)
        omega2 = eta_wedge_omega1(m, p)
        assert omega1.span(p) == ker_iota
        assert linalg.Span(omega2) == ker_eta
        assert record["omega1_dims"][p] == len(ker_iota)
        assert (record["omega1_dims"][p - 1] if p else 0) == \
            linalg.rank(omega2)
    assert [len(eta_wedge_omega1(m, p)) for p in (0, 1)] == [0, 1]


@pytest.mark.parametrize("name", ["kx5-eta", "rot7-1-2-3"])
def test_omega_splitting_builds_no_omega2(name, monkeypatch):
    # with Omega_eta and Omega_1 built, the splitting is a comparison of
    # their dimensions: no subcomplex is constructed and nothing is wedged;
    # rot7-1-2-3's Omega_eta is a proper kernel, kx5-eta's eta is not e1
    m = loads(ROT7_123).to_lie_model() if name == "rot7-1-2-3" else \
        pinned_or_corpus(name)
    invariant_forms(m), basic_complex(m)
    built, wedged = [], []
    honest_init, honest_wedge = Subcomplex.__init__, cdga.DGA.wedge_coords

    def counting_init(self, *args, **kwargs):
        built.append(args)
        honest_init(self, *args, **kwargs)

    def counting_wedge(self, *args):
        wedged.append(args)
        return honest_wedge(self, *args)

    monkeypatch.setattr(Subcomplex, "__init__", counting_init)
    monkeypatch.setattr(cdga.DGA, "wedge_coords", counting_wedge)
    assert omega_splitting(m) is basic_complex(m)
    assert built == [] and wedged == []


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
    assert sec.record is None
    assert [(a["check"], a["ok"]) for a in sec.asserted] == \
        [("d_eta_equals_lie", True)]


def assert_omega_eta_and_omega1_are_the_kernels(m):
    # Omega_eta and Omega_1 as every xi can take them: L_xi's kernel on
    # Omega, and iota_xi's kernel inside it, on its basis
    omega_eta = kernel_subcomplex(m.ce(), m.lie_xi())
    omega1 = Subcomplex.kernel_of(omega_eta, m.iota_xi().columns, -1)
    assert (invariant_forms(m) is m.ce()) == (omega_eta is m.ce())
    for p in range(m.ce().top + 1):
        if omega_eta is not m.ce():
            assert invariant_forms(m).span(p) == omega_eta.span(p)
        assert basic_complex(m).span(p) == omega1.span(p)


# rot7-1-2-3-conj is the one corpus or pinned model with a xi that is not a
# multiple of a basis vector: Omega_1 is not spanned by fibre monomials
WITH_XI = sorted(name for name in {*CORPUS_MODELS, *PINNED, "rot7-1-2-3"}
                 if name == "rot7-1-2-3" or pinned_or_corpus(name).xi)


@pytest.mark.parametrize("name", WITH_XI)
def test_the_fibre_builds_the_kernels_every_xi_can_take(name):
    # with xi a multiple of X_k, Omega_1 is L_xi's kernel on the monomials
    # without e^k and Omega_eta is Omega_1 + e^k ^ Omega_1; on rot7-1-2-3-xi4
    # k = 4, and e4 ^ passes an odd or even number of e1, e2, e3 within one
    # row of Omega_1
    m = loads(ROT7_123).to_lie_model() if name == "rot7-1-2-3" else \
        pinned_or_corpus(name)
    assert (eta_module._xi_axis(m) is None) == (name == "rot7-1-2-3-conj")
    assert_omega_eta_and_omega1_are_the_kernels(m)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(structured_model_text())
def test_the_fibre_builds_the_kernels_on_structured_models(text):
    assert_omega_eta_and_omega1_are_the_kernels(loads(text).to_lie_model())


@settings(derandomize=True, max_examples=6, deadline=None)
@given(transverse_weights())
def test_the_fibre_builds_the_kernels_on_the_transverse_family(weights):
    assert_omega_eta_and_omega1_are_the_kernels(
        loads(family_text(*weights)).to_lie_model())


# R x aff(R): [X1, X2] = X1, xi = X1 and eta = e1, so L_xi e1 = -e2 and
# ker L_xi is not Omega_1 + e1 ^ Omega_1; d(eta) = -e1^e2, so the report
# computes no splitting.  The SHA-256 was taken before Omega_eta was built
# on the fibre.
AFFXR2 = "14bd4977da0353b8d4f04a1bc6a4875590a9d14c39a4a30d9f7ebb3753ba70d7"


def test_a_lie_derivative_that_moves_e_k_takes_the_kernel_path(monkeypatch):
    text = perfbench_models().model_text("affxR2", 5, [(1, 2, 1, 1)])
    mf = loads(text)
    report = build_report(mf)
    assert report["ok"]
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == AFFXR2
    m = mf.to_lie_model()
    assert m.lie_xi().image(0b1) == {0b10: -1}
    # Omega_1 is still the fibre kernel: L_xi vanishes on e2 .. e5
    assert [basic_complex(m).dim(p) for p in range(6)] == \
        [1, 4, 6, 4, 1, 0]
    # the fibre sum, forced, would be all of Omega: the guard raises
    with pytest.raises(StructureError, match="construction inconsistency"):
        eta_module._fibre_sum(m, 0)

    def no_fibre_sum(*args):
        raise AssertionError("Omega_eta stacked from Omega_1")

    monkeypatch.setattr(eta_module, "_fibre_sum", no_fibre_sum)
    oracle = Oracle(text)
    assert [invariant_forms(m).dim(p) for p in range(6)] == \
        [oracle.omega_eta(p).shape[1] for p in range(6)] == \
        [1, 4, 7, 7, 4, 1]
    assert_omega_eta_and_omega1_are_the_kernels(m)
