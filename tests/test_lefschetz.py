"""Lefschetz maps, cohomology splitting, mapping tori."""

import pytest
import sympy

import cokahler.report as report_module
from cokahler import build_report, cdga, cohomology, lefschetz, linalg, \
    loads
from cokahler.cdga import AlgebraMap, DGA, Derivation
from cokahler.cohomology import kunneth_convolution
from cokahler.errors import StructureError
from cokahler.eta import invariant_forms, omega_splitting
from cokahler.exterior import Generator, GradedAlgebra
from cokahler.geometry import LieModel
from cokahler.lefschetz import (lefschetz_map, mapping_torus_model,
                                splitting_check, verify_lefschetz_iso)
from cokahler.cli import main
from cokahler.modelfile import CORPUS_MODELS, load_corpus
from cokahler.report import run_section
from test_memo import ROT7_123
from test_report_bytes import PINNED, pinned_text


def t2_dga():
    alg = GradedAlgebra([Generator("e1", 1), Generator("e2", 1)])
    return DGA(alg, Derivation(alg, 1, {}, name="d"))


def test_lefschetz_values_on_torus3(torus3):
    alg = torus3.algebra()
    assert lefschetz_map(torus3, alg.unit()) == alg.monomial("e1", "e2", "e3")
    assert lefschetz_map(torus3, alg.gen("e1")) == alg.monomial("e2", "e3")
    assert lefschetz_map(torus3, alg.gen("e2")) == alg.monomial("e1", "e2")
    assert lefschetz_map(torus3, alg.gen("e3")) == alg.monomial("e1", "e3")


def test_lefschetz_degree_bounds(torus3):
    alg = torus3.algebra()
    with pytest.raises(StructureError):
        lefschetz_map(torus3, alg.monomial("e1", "e2"))   # p = 2 > n = 1


def test_lefschetz_refuses_non_invariant_forms(heisenberg):
    with pytest.raises(StructureError):
        lefschetz_map(heisenberg, heisenberg.algebra().gen("e3"))


def test_lefschetz_needs_odd_dimension():
    m = LieModel(2, {}, name="flat2")
    with pytest.raises(StructureError):
        verify_lefschetz_iso(m)


def test_lefschetz_closed_to_closed_exact_to_exact(torus5, heisenberg):
    # membership checks on Omega_eta: closed inputs give closed outputs,
    # exact inputs give exact outputs (within the invariant subcomplex)
    for m in (torus5, heisenberg):
        d = m.ce().d
        sub = invariant_forms(m)
        ring = sub.cohomology()
        n = (m.dimension - 1) // 2
        for p in range(n + 1):
            for j in range(sub.dim(p)):
                elem = sub.element(p, {j: 1})
                if d.apply(elem).is_zero():
                    out = lefschetz_map(m, elem)
                    assert d.apply(out).is_zero()
            for j in range(sub.dim(p - 1) if p >= 1 else 0):
                d_beta = d.apply(sub.element(p - 1, {j: 1}))
                if d_beta.is_zero():
                    continue
                img = lefschetz_map(m, d_beta)
                coords = sub.coords(img.degree, img)
                assert not ring.class_of(img.degree, coords)


def test_lefschetz_iso_on_tori(torus3, torus5):
    for m, n in ((torus3, 1), (torus5, 2)):
        report = verify_lefschetz_iso(m)
        assert report.n == n
        assert report.hypothesis_cokahler
        assert report.all_iso and report.top_class_nonzero
        sec = run_section(m, "lefschetz")
        assert [(r["check"], r["ok"]) for r in sec.asserted] == \
            [("lefschetz_isomorphism", True)]
        for d in report.degrees:
            assert d.rank == d.source_dim == d.target_dim
            # oracle: full rank via sympy
            matrix = [linalg.dense(row, d.source_dim) for row in d.matrix]
            if matrix and matrix[0]:
                sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                                    for v in row] for row in matrix])
                assert sm.rank() == d.source_dim


def test_a_class_whose_only_coordinate_is_at_index_zero_is_nonzero(
        torus5, heisenberg):
    # a sparse class {0: c} is nonzero, while any() over it reads its keys
    # and calls it zero
    report = verify_lefschetz_iso(torus5)
    ring = invariant_forms(torus5).cohomology()
    assert ring.dim(5) == 1
    assert report.top_class_nonzero is True
    dga = heisenberg.ce()
    e13 = dga.coords(2, dga.algebra.monomial("e1", "e3"))
    assert dga.cohomology().class_of(2, e13) == {0: 1}


def test_lefschetz_heisenberg_informational(heisenberg):
    report = verify_lefschetz_iso(heisenberg)
    assert not report.hypothesis_cokahler
    sec = run_section(heisenberg, "lefschetz")
    assert sec.asserted == []  # no verdict asserted outside the hypothesis
    assert sec.hypothesis.startswith("not co-Kahler")
    # ranks still computed: H^0 and H^1 of the invariant complex
    assert [d.rank for d in report.degrees] == [1, 2]


def test_splitting_check(torus3, torus5):
    r3 = splitting_check(torus3)
    assert r3.ok
    assert r3.betti_eta == [1, 3, 3, 1]
    assert r3.betti_omega1 == [1, 2, 1, 0]
    # independent recomputation: (1,3,3,1) = (1,2,1,0) + shifted (0,1,2,1)
    shifted = [0] + r3.betti_omega1[:-1]
    assert [a + b for a, b in zip(r3.betti_omega1, shifted)] == r3.betti_eta
    r5 = splitting_check(torus5)
    assert r5.ok
    shifted = [0] + r5.betti_omega1[:-1]
    assert [a + b for a, b in zip(r5.betti_omega1, shifted)] == r5.betti_eta


def test_splitting_degree_zero(torus3):
    r = splitting_check(torus3)
    assert r.betti_eta[0] == r.betti_omega1[0] == 1


def oracle_fixed_betti(phi_matrices, dga):
    """Betti of the fixed subcomplex via sympy nullspaces of (phi - id),
    then rank-nullity on the restricted differential."""
    import sympy
    spaces = []
    for p, mat in enumerate(phi_matrices):
        n = dga.dim(p)
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in mat]) - sympy.eye(n)
        spaces.append([list(v) for v in sm.nullspace()])
    return [len(s) for s in spaces]


def test_mapping_torus_rotation(torus3):
    t2 = t2_dga()
    e1, e2 = t2.algebra.gens()
    rot = AlgebraMap(t2.algebra, {"e1": e2, "e2": -e1})
    torus = mapping_torus_model(t2, rot, 4)
    assert torus.fixed_betti == [1, 0, 1]
    assert torus.betti == torus.fixed_convolved == [1, 1, 1, 1]
    assert kunneth_convolution(torus.fixed_betti, (1, 1)) == \
        tuple(torus.betti)
    # oracle: fixed dims straight from sympy.nullspace(phi - id)
    assert oracle_fixed_betti([[linalg.dense(row, t2.dim(p))
                                for row in linalg.transpose(
                                    rot.columns(p), t2.dim(p))]
                               for p in range(3)], t2) \
        == [1, 0, 1]


def test_mapping_torus_negation():
    t2 = t2_dga()
    e1, e2 = t2.algebra.gens()
    neg = AlgebraMap(t2.algebra, {"e1": -e1, "e2": -e2})
    torus = mapping_torus_model(t2, neg, 2)
    assert torus.betti == [1, 1, 1, 1]


def test_mapping_torus_identity_matches_tensor():
    t2 = t2_dga()
    e1, e2 = t2.algebra.gens()
    ident = AlgebraMap(t2.algebra, {"e1": e1, "e2": e2})
    torus = mapping_torus_model(t2, ident, 1)
    assert torus.betti == [1, 3, 3, 1]
    direct = t2_dga().extend([Generator("h", 1)], {})
    assert tuple(torus.betti) == direct.cohomology().betti()


def test_mapping_torus_heisenberg_identity(heisenberg):
    dga = heisenberg.ce()
    gens = dga.algebra.gens()
    ident = AlgebraMap(dga.algebra, {f"e{i+1}": gens[i] for i in range(3)})
    torus = mapping_torus_model(dga, ident, 1)
    assert tuple(torus.betti) == kunneth_convolution((1, 2, 2, 1), (1, 1))


def test_mapping_torus_from_model_files():
    rot = load_corpus("t2-rot4-mapping-torus").to_lie_model()
    phi, order = rot.automorphism
    assert order == 4
    torus = mapping_torus_model(rot.ce(), phi, order)
    assert torus.betti == [1, 1, 1, 1]
    neg = load_corpus("t2-negid-mapping-torus").to_lie_model()
    phi2, order2 = neg.automorphism
    assert order2 == 2
    torus2 = mapping_torus_model(neg.ce(), phi2, order2)
    assert torus2.betti == [1, 1, 1, 1]


def test_mapping_torus_circle_name_collision():
    # the first free name of t, s, u, z, then of t0, t1, ...
    for names, expect in ((["t"], "s"), (["t", "s", "u", "z"], "t0"),
                          (["z", "t0", "u", "s", "t"], "t1")):
        alg = GradedAlgebra([Generator(name, 1) for name in names])
        dga = DGA(alg, Derivation(alg, 1, {}))
        phi = AlgebraMap(alg, {name: alg.gen(name) for name in names})
        torus = mapping_torus_model(dga, phi, 1)
        assert torus.circle_generator == expect
        assert tuple(torus.betti) == kunneth_convolution(dga.betti(), (1, 1))


@pytest.mark.parametrize("name, expect", [("torus5", 17), ("rot5-1-2", 5),
                                          ("kx5", 9)])
def test_a_report_reduces_one_class_per_lefschetz_column(monkeypatch, name,
                                                         expect):
    # a column of the Lefschetz matrix is the class of L(rep) for one
    # representative of H^p_eta (p <= n), reduced once by class_of on
    # H_eta; one more call is the class of omega^n ^ eta
    mf = model_file(name)
    ring = invariant_forms(mf.to_lie_model()).cohomology()
    n = (mf.dimension - 1) // 2
    assert sum(ring.dim(p) for p in range(n + 1)) + 1 == expect
    honest = cohomology.CohomologyRing.class_of
    honest_verify = report_module.verify_lefschetz_iso
    models, inside, calls = [], [], []

    def counted(self, *args):
        if inside:
            calls.append(self.complex)
        return honest(self, *args)

    def section(m):
        models.append(m)
        inside.append(m)
        try:
            return honest_verify(m)
        finally:
            inside.pop()

    monkeypatch.setattr(cohomology.CohomologyRing, "class_of", counted)
    monkeypatch.setattr(report_module, "verify_lefschetz_iso", section)
    assert build_report(mf)["ok"]
    (m,) = models
    assert calls == [invariant_forms(m)] * expect


@pytest.mark.parametrize("name", ["torus5", "rot5-1-2", "kx5", "kx5-p"])
def test_splitting_check_reduces_no_class(monkeypatch, name):
    # H_eta = H_1 + [eta] ^ H_1 is read off Betti numbers: Omega_eta splits
    # as complexes, so no class is pushed from H_1 into H_eta
    def refused(*args):
        raise AssertionError("splitting_check reduced a class")

    m = lie_model(name)
    monkeypatch.setattr(cohomology.CohomologyRing, "class_of", refused)
    report = splitting_check(m)
    assert report.ok and report.cohomology_split == [True] * (m.dimension + 1)


def test_induced_map_rank_is_the_rank_of_its_matrix(monkeypatch):
    # induced_map eliminates its matrix once, for the kernel, and takes the
    # rank as source_dim - len(kernel); every map of a kx5 report (Lefschetz,
    # the parallel-form inclusion, the minimal model's comparison maps)
    # must agree with a separate rank computation
    made = []
    honest = cohomology.InducedMap

    def recorded(*args):
        made.append(honest(*args))
        return made[-1]

    monkeypatch.setattr(cohomology, "InducedMap", recorded)
    assert build_report(load_corpus("kx5"))["ok"]
    assert len(made) > 10
    for ind in made:
        assert ind.rank == linalg.rank(ind.matrix)
        assert len(ind.kernel_classes) == ind.source_dim - ind.rank


def model_file(name: str):
    """A corpus, pinned or rot7-1-2-3 model file."""
    if name == "rot7-1-2-3":
        return loads(ROT7_123)
    text = pinned_text(name) if name in PINNED else None
    return load_corpus(name) if text is None else loads(text)


def lie_model(name: str) -> LieModel:
    return model_file(name).to_lie_model()


@pytest.mark.parametrize("name, reps", [("kx5", 8), ("rot7-1-2-3", 10),
                                        ("torus5", 16)])
def test_lefschetz_applies_only_iota_xi_once_per_representative(
        monkeypatch, name, reps):
    # a column of the Lefschetz matrix is the sum of L's two terms on one
    # representative: once the classification and the splitting are built,
    # the section applies iota_xi once per representative and no other
    # operator, splits no form and checks no component through
    # lefschetz_map.  Operators are told apart by object, not by name: L_xi
    # is also nabla_X1.
    m = lie_model(name)
    run_section(m, "classification")
    run_section(m, "splitting")
    ring = invariant_forms(m).cohomology()
    n = (m.dimension - 1) // 2
    assert sum(ring.dim(p) for p in range(n + 1)) == reps
    iota_xi = m.iota_xi()
    applied = []
    honest = cdga.Derivation.apply

    def counted(op, elem):
        applied.append(op)
        return honest(op, elem)

    def refused(*args):
        raise AssertionError("the section called lefschetz_map")

    monkeypatch.setattr(cdga.Derivation, "apply", counted)
    monkeypatch.setattr(lefschetz, "lefschetz_map", refused)
    sec = run_section(m, "lefschetz")
    assert sec.asserted[0]["ok"]
    assert all(op is iota_xi for op in applied)
    assert len(applied) == reps


@pytest.mark.parametrize("name", ["torus5", "kx5", "rot7-1-2-3",
                                  "heisenberg", "kx5-p"])
def test_lefschetz_terms_are_the_maps_of_the_split_components(name):
    # alpha_2 = eta ^ iota_xi alpha and alpha_1 = alpha - alpha_2 split every
    # representative alpha of H^p_eta (p <= n); L's eta-term is L(alpha_1),
    # its iota-term is L(alpha_2), and each is zero exactly when its
    # component is
    m = lie_model(name)
    iota, eta = m.iota(m.xi), m.eta_element()
    sub = invariant_forms(m)
    ring = sub.cohomology()
    seen = 0
    for p in range((m.dimension - 1) // 2 + 1):
        for rep in ring.representatives(p):
            alpha = sub.element(p, rep)
            alpha2 = eta.wedge(iota.apply(alpha))
            alpha1 = alpha - alpha2
            assert iota.apply(alpha1).is_zero()
            assert eta.wedge(alpha2).is_zero()
            terms = lefschetz._terms(m, alpha)
            assert terms == (lefschetz_map(m, alpha1), lefschetz_map(m, alpha2))
            assert [t.is_zero() for t in terms] == [alpha1.is_zero(),
                                                    alpha2.is_zero()]
            assert lefschetz_map(m, alpha) == terms[0] + terms[1]
            seen += 1
    assert seen


def test_an_iota_term_outside_omega1_is_a_construction_inconsistency(
        torus3, monkeypatch):
    # on torus3, L(e1) = omega = e2^e3 is all iota-term; an Omega_1 without
    # e2^e3 in degree 2 misses it, and the section raises instead of
    # reporting a column whose terms fall outside their blocks
    dga, alg = torus3.ce(), torus3.algebra()
    short = cdga.Subcomplex(dga, {0: [{0: 1}], 1: [
        dga.coords(1, alg.gen("e2")), dga.coords(1, alg.gen("e3"))]})
    assert lefschetz._component_split_ok(torus3, alg.gen("e1"), 2)
    monkeypatch.setattr(lefschetz, "basic_complex", lambda m: short)
    with pytest.raises(StructureError, match="construction inconsistency: "
                       "the iota-term .* leaves Omega_1 in degree 2"):
        lefschetz._component_split_ok(torus3, alg.gen("e1"), 2)
    with pytest.raises(StructureError, match="construction inconsistency"):
        verify_lefschetz_iso(torus3)


@pytest.mark.parametrize("name, ranks, dims, witnesses", [
    ("kx5-p", [1, 3, 4], [1, 3, 4], [[], [], []]),
    ("rxkt5", [1, 3, 6], [1, 4, 7], [[], ["e3"], ["e1^e3"]]),
], ids=["kx5-p", "rxkt5"])
def test_lefschetz_on_kx5_p_and_rxkt5(name, ranks, dims, witnesses):
    # kx5-p wedges with eta = e1 + e2; rxkt5 is cosymplectic, not co-Kahler,
    # and its Lefschetz map has a kernel in degrees 1 and 2
    m = lie_model(name)
    report = verify_lefschetz_iso(m)
    assert report.hypothesis_cokahler == (name == "kx5-p")
    assert [d.rank for d in report.degrees] == ranks
    assert [d.source_dim for d in report.degrees] == dims
    assert [d.target_dim for d in report.degrees] == dims
    assert [d.kernel_witnesses for d in report.degrees] == witnesses
    assert report.top_class_nonzero
    sec = run_section(m, "lefschetz")
    assert [(r["check"], r["ok"]) for r in sec.asserted] == (
        [("lefschetz_isomorphism", True)] if name == "kx5-p" else [])


CURVED_NOTE = ("not unimodular: no compact quotient, Lefschetz ranks "
               "reported without a verdict (all iso: False)")
CURVED_MASSEY_NOTE = ("not unimodular: no compact quotient, Massey status "
                      "reported without a verdict (status: no obstruction "
                      "among basis triples)")


@pytest.mark.parametrize("name", ["rxaff3", "rxaff5", "rxch2"])
def test_a_curved_cokahler_model_reports_lefschetz_ranks_without_a_verdict(
        name, capsys, tmp_path):
    # the co-Kahler Lefschetz and formality theorems are about compact
    # manifolds, and a Lie group with a lattice is unimodular: on these
    # curved models the map is not an isomorphism, and that is a note, not a
    # failed verdict; the Massey status is a note too
    report = build_report(model_file(name))
    assert report["classification"]["coKahler"]
    assert not report["model"]["unimodular"]
    assert report["ok"] and report["notes"] == [CURVED_NOTE,
                                                CURVED_MASSEY_NOTE]
    assert {"lefschetz_isomorphism",
            "massey_formality_obstruction"}.isdisjoint(
                r["check"] for r in report["asserted"])
    assert report["lefschetz"]["top_class_nonzero"] is False
    path = tmp_path / f"{name}.model"
    path.write_text(pinned_text(name))
    for flags, code in (((), 1), (("--informational",), 0)):
        assert main([*flags, "lefschetz", str(path)]) == code
        assert f"note: {CURVED_NOTE}\n" in capsys.readouterr().out
        assert main([*flags, "report", str(path)]) == 0
    capsys.readouterr()


def test_every_unimodular_cokahler_model_binds_the_lefschetz_verdict():
    bound = {}
    for name in sorted({*CORPUS_MODELS, *PINNED}):
        report = build_report(model_file(name))
        if report.get("classification", {}).get("coKahler"):
            bound[name] = (report["model"]["unimodular"],
                           "lefschetz_isomorphism" in {
                               r["check"] for r in report["asserted"]})
    assert {name for name, (uni, _) in bound.items() if not uni} == {
        "rxaff3", "rxaff5", "rxch2"}
    assert all(uni == binds for uni, binds in bound.values())


def sympy_rank(rows: list[dict], width: int) -> int:
    """The rank of sparse rows, by sympy."""
    return sympy.Matrix(len(rows), width,
                        [sympy.Rational(row.get(j, 0))
                         for row in rows for j in range(width)]).rank()


@pytest.mark.parametrize("name", ["torus5", "kx5", "kx5-p", "rot7-1-2-3",
                                  "rxkt5"])
def test_h1_and_eta_h1_classes_are_a_basis_holding_each_lefschetz_term(name):
    # the theorem splitting_check and the component check read off Betti
    # numbers and Omega_1: the classes in H^q_eta of the representatives of
    # H^q_1 and of eta ^ those of H^{q-1}_1 form a basis of H^q_eta, and the
    # eta-term of L on a representative of H^p_eta (p <= n) has its class in
    # the eta-block, the iota-term in the H_1 block.  On rot7-1-2-3 L_xi != 0
    # and Omega_eta is a proper subcomplex.
    m = lie_model(name)
    sub, omega1 = invariant_forms(m), omega_splitting(m)
    ring, ring1 = sub.cohomology(), omega1.cohomology()
    eta = m.eta_element()

    def cls(q, form):
        return ring.class_of(q, sub.coords(q, form))

    blocks = []
    for q in range(m.ce().top + 1):
        h1 = [cls(q, omega1.element(q, rep))
              for rep in ring1.representatives(q)]
        eta_h1 = [cls(q, eta.wedge(omega1.element(q - 1, rep)))
                  for rep in (ring1.representatives(q - 1) if q else [])]
        assert sympy_rank(h1 + eta_h1, ring.dim(q)) == \
            len(h1) + len(eta_h1) == ring.dim(q)
        blocks.append((eta_h1, h1))
    n = (m.dimension - 1) // 2
    seen = 0
    for p in range(n + 1):
        q = 2 * n + 1 - p
        for rep in ring.representatives(p):
            terms = lefschetz._terms(m, sub.element(p, rep))
            for term, block in zip(terms, blocks[q]):
                width = ring.dim(q)
                assert sympy_rank(block + [cls(q, term)], width) == \
                    sympy_rank(block, width)
                seen += 1
    assert seen
