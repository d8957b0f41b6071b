"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every equality here is exact (rational arithmetic); there are no tolerances.
Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
"""

import subprocess
import sys
from fractions import Fraction

from cokahler import linalg
from cokahler.cdga import AlgebraMap, supercommutator, supercommutes_with_d
from cokahler.cohomology import kunneth_convolution
from cokahler.eta import (basic_complex, build_d_eta, invariant_forms,
                          model_tensor_split_check, omega_splitting,
                          verify_basic_match,
                          verify_d_eta_equals_lie, verify_parallel_form_quism)
from cokahler.exterior import Element
from cokahler.geometry import classify
from cokahler.lefschetz import (lefschetz_map, mapping_torus_model,
                                splitting_check, verify_lefschetz_iso)
from cokahler.massey import degree_one_massey_scan, triple_massey
from cokahler.minimal import minimal_model
from cokahler.modelfile import load_corpus

CORPUS = ("torus3", "torus5", "heisenberg")


def _model(name):
    return load_corpus(name).to_lie_model()


def _report(criterion, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def _basis_monomials(alg, p):
    return [Element(alg, p, {k: Fraction(1)}) for k in alg.basis(p)]


def test_criterion_1_operator_identities():
    ok = True
    for name in CORPUS:
        m = _model(name)
        alg = m.algebra()
        dga = m.ce()
        for i in range(m.dimension):
            vec = {i: Fraction(1)}
            iota = m.iota(vec)
            lie = supercommutator(dga.d, iota)
            coad = m.lie_coadjoint(vec)
            for p in range(alg.top + 1):
                for mono in _basis_monomials(alg, p):
                    ok &= iota.apply(iota.apply(mono)).is_zero()
                    ok &= lie.apply(mono) == coad.apply(mono)
            ok &= iota.leibniz_failure is None and lie.leibniz_failure is None
        op = build_d_eta(m)
        ok &= supercommutes_with_d(dga, op.d_eta)
        ok &= op.d_eta.leibniz_failure is None
        ok &= dga.d.leibniz_failure is None
    _report(1, "Cartan, iota^2 = 0, {d, d_eta} = 0 and Leibniz, exactly, "
               "on every corpus model", ok)


def test_criterion_2_d_eta_equals_lie_derivative():
    ok = True
    for name in CORPUS:
        m = _model(name)
        ok &= verify_d_eta_equals_lie(m) is True
        # degreewise matrix equality, literally
        d_eta = build_d_eta(m).d_eta
        lie = m.lie_xi()
        for p in range(m.algebra().top + 1):
            ok &= d_eta.matrix(p) == lie.matrix(p)
    _report(2, "d_eta = L_xi as exact degreewise matrices on torus3, "
               "torus5, heisenberg", ok)


def test_criterion_3_parallel_form_quasi_isomorphism():
    ok = True
    for name in ("torus3", "torus5"):
        rep = verify_parallel_form_quism(_model(name))
        ok &= rep.eta_parallel and all(rep.degreewise_iso)
    heis = verify_parallel_form_quism(_model("heisenberg"))
    ok &= not heis.eta_parallel
    ok &= heis.degreewise_iso[2] is False       # H^2 is not injective
    ok &= heis.kernel_witnesses[2] == ["e1^e2"]
    _report(3, "ker(d_eta) inclusion: isomorphism on the tori (eta "
               "parallel), H^2 kernel on heisenberg (hypothesis necessary)",
            ok)


def test_criterion_4_splitting_and_basic_cohomology():
    ok = True
    for name in ("torus3", "torus5"):
        m = _model(name)
        omega1 = omega_splitting(m)
        top, eta = m.ce().top, m.eta_element()
        for p in range(1, top + 1):
            # eta ^ Omega_1^{p-1}, wedged here, with Omega_1^p: a basis of
            # Omega_eta^p
            omega2 = [m.ce().coords(p, eta.wedge(omega1.element(
                p - 1, {t: Fraction(1)})))
                for t in range(omega1.dim(p - 1))]
            stacked = [dict(r) for r in omega1.basis_vectors(p)] + omega2
            ok &= linalg.rank(stacked) == len(stacked) == \
                invariant_forms(m).dim(p)
        ok &= verify_basic_match(m) and omega1 is basic_complex(m)
        # Omega_1 against ker iota_xi in ker L_xi, eliminated here
        for p in range(top + 1):
            stacked = m.lie_xi().matrix(p) + m.iota_xi().matrix(p)
            ok &= omega1.span(p) == linalg.kernel_span(
                stacked, m.algebra().dim(p))
        coh = splitting_check(m)
        ok &= coh.ok
        for p in range(top + 1):
            prev = coh.betti_omega1[p - 1] if p >= 1 else 0
            ok &= coh.betti_eta[p] == coh.betti_omega1[p] + prev
    _report(4, "Omega_eta = Omega_1 (+) eta^Omega_1 exactly, Omega_1 is the "
               "basic complex, and H-dimension splitting on co-Kahler models",
            ok)


def test_criterion_5_lefschetz_isomorphisms():
    ok = True
    for name, n in (("torus3", 1), ("torus5", 2)):
        m = _model(name)
        rep = verify_lefschetz_iso(m)
        ok &= rep.n == n and rep.hypothesis_cokahler
        for d in rep.degrees:
            ok &= d.isomorphism and d.rank == d.source_dim == d.target_dim
        ok &= rep.top_class_nonzero
        # L^n(1) = omega^n ^ eta is a nonzero top form
        image = lefschetz_map(m, m.algebra().unit())
        ok &= not image.is_zero() and image.degree == 2 * n + 1
    _report(5, "Lefschetz matrices full-rank for 0 <= p <= n on torus3 and "
               "torus5; omega^n ^ eta is a nonzero top class", ok)


def test_criterion_6_classification_and_parallel_fields():
    heis = classify(_model("heisenberg"))
    ok = heis.cosymplectic and not heis.normal and not heis.coKahler
    ok &= not heis.killing_xi and not heis.parallel_xi
    ok &= "killing_xi" in heis.witnesses and "parallel_xi" in heis.witnesses
    ok &= "normality" in heis.witnesses
    for name in ("torus3", "torus5"):
        v = classify(_model(name))
        ok &= v.coKahler and v.parallel_xi and v.parallel_eta and v.parallel_J
        ok &= v.killing_xi
    for name in CORPUS:
        v = classify(_model(name))
        ok &= v.coKahler == (v.cosymplectic and v.normal) == v.parallel_J
    _report(6, "heisenberg is cosymplectic but neither normal nor co-Kahler "
               "(with witnesses); tori are co-Kahler with parallel xi, eta, "
               "J; the three-way equivalence holds on all corpus models", ok)


def test_criterion_7_mapping_torus_models():
    rot = _model("t2-rot4-mapping-torus")
    phi, order = rot.automorphism
    torus = mapping_torus_model(rot.ce(), phi, order)
    ok = torus.betti == [1, 1, 1, 1]
    gens = rot.algebra().gens()
    ident = AlgebraMap(rot.algebra(), {"e1": gens[0], "e2": gens[1]})
    trivial = mapping_torus_model(rot.ce(), ident, 1)
    ok &= trivial.betti == [1, 3, 3, 1]
    ok &= tuple(trivial.betti) == _model("torus3").ce().cohomology().betti()
    neg = _model("t2-negid-mapping-torus")
    phi2, order2 = neg.automorphism
    for dga, auto, m_order in ((rot.ce(), phi, order), (neg.ce(), phi2, order2),
                               (rot.ce(), ident, 1)):
        built = mapping_torus_model(dga, auto, m_order)
        ok &= kunneth_convolution(built.fixed_betti, (1, 1)) == \
            tuple(built.betti)
    _report(7, "mapping torus of T^2: order-4 rotation gives (1,1,1,1), "
               "identity gives (1,3,3,1) = torus3, and fixed Betti * (1,1) "
               "always equals the mapping-torus Betti", ok)


def test_criterion_8_formality():
    ok = True
    for name in ("torus3", "torus5"):
        scan = degree_one_massey_scan(_model(name).ce().cohomology())
        ok &= not scan.obstructed and all(t.vanishes for _, t in scan.triples)
    heis = _model("heisenberg")
    ring = heis.ce().cohomology()
    triple = triple_massey(ring, (1, {0: Fraction(1)}),
                           (1, {1: Fraction(1)}),
                           (1, {1: Fraction(1)}))
    ok &= not triple.vanishes and triple.indeterminacy_dim == 0
    direct = {}
    for name in CORPUS:
        m = _model(name)
        mm = minimal_model(m.ce(), 3)
        ok &= mm.minimal and mm.quasi_iso
        direct[name] = mm.generator_counts()
    for name in ("torus3", "torus5"):
        # ℳ(Omega_1) (x) Λ(eta) is a minimal model of Omega, with the
        # counts of the one built directly
        m = _model(name)
        basic = minimal_model(omega_splitting(m), 3)
        mm = model_tensor_split_check(m, basic)
        ok &= basic.minimal and basic.quasi_iso and mm.minimal and mm.quasi_iso
        ok &= mm.generator_counts() == direct[name]
        ok &= direct[name][1] == basic.generator_counts()[1] + 1
    _report(8, "degree-1 Massey products vanish on co-Kahler models; "
               "<[e1],[e2],[e2]> obstructs heisenberg with zero "
               "indeterminacy; minimal models are minimal and split "
               "generator counts", ok)


def test_criterion_9_deterministic_reports():
    cmd = [sys.executable, "-m", "cokahler.cli", "report", "torus3", "--all"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and first.stdout
    json_cmd = [sys.executable, "-m", "cokahler.cli", "report", "heisenberg",
                "--json"]
    j1 = subprocess.run(json_cmd, capture_output=True, check=True)
    j2 = subprocess.run(json_cmd, capture_output=True, check=True)
    ok = bool(ok) and j1.stdout == j2.stdout
    _report(9, "two consecutive 'report --all' runs emit identical bytes",
            ok)
