"""Derived objects are built once per model and shared, never across models;
a derivation expands each basis monomial once, and equal derivations are one
operator."""

from collections import Counter

import pytest

from cokahler import cdga, linalg, report
from cokahler.cdga import AlgebraMap, Derivation
from cokahler.errors import StructureError
from cokahler.eta import (basic_complex, build_d_eta, invariant_forms,
                          kernel_subcomplex, omega_splitting)
from cokahler.geometry import (LieModel, classify, omega_element,
                               validate_almost_contact)
from cokahler.modelfile import load_corpus, loads
from cokahler.report import build_report

BUILDERS = {
    "algebra": lambda m: m.algebra(),
    "ce": lambda m: m.ce(),
    "metric_inverse": lambda m: m.metric_inverse(),
    "levi_civita": lambda m: m.levi_civita(),
    "lie_xi": lambda m: m.lie_xi(),
    "classify": classify,
    "omega_element": omega_element,
    "build_d_eta": build_d_eta,
    "invariant_forms": invariant_forms,
    "omega_splitting": omega_splitting,
    "basic_complex": basic_complex,
    "validate_almost_contact": validate_almost_contact,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_second_call_returns_the_same_object(heisenberg, name):
    build = BUILDERS[name]
    assert build(heisenberg) is build(heisenberg)


def test_models_from_one_file_share_nothing():
    first = load_corpus("heisenberg").to_lie_model()
    second = load_corpus("heisenberg").to_lie_model()
    for name, build in BUILDERS.items():
        assert build(first) is not build(second), name
    assert classify(first) == classify(second)


def test_failed_build_is_not_memoized():
    # J = 0 violates J^2 = -I + eta (x) xi
    m = LieModel(3, {}, xi=[1, 0, 0], eta=[1, 0, 0], J=[[0] * 3] * 3)
    for _ in range(2):
        with pytest.raises(StructureError, match="not almost contact"):
            classify(m)


ROT7_123 = """\
# R x_D R^6, ad X1 rotating (X2, X3), (X4, X5), (X6, X7) with weights 1, 2, 3
name: rot7-1-2-3
dimension: 7

[brackets]
1 2 3 1
1 3 2 -1
1 4 5 2
1 5 4 -2
1 6 7 3
1 7 6 -3

[metric]
identity

[xi]
X1

[eta]
e1

[J]
0 0 0 0 0 0 0
0 0 -1 0 0 0 0
0 1 0 0 0 0 0
0 0 0 0 -1 0 0
0 0 0 1 0 0 0
0 0 0 0 0 0 -1
0 0 0 0 0 1 0
"""


@pytest.mark.parametrize("name", ["rot7-1-2-3", "kx5",
                                  "t2-rot4-mapping-torus"])
def test_a_report_expands_each_monomial_once_per_derivation(monkeypatch,
                                                             name):
    # derivations and algebra maps (the mapping torus's phi) alike
    fills = Counter()
    for cls in (Derivation, AlgebraMap):
        def counting(op, key, expand=cls._expand):
            fills[op, key] += 1
            return expand(op, key)

        monkeypatch.setattr(cls, "_expand", counting)
    mf = loads(ROT7_123) if name == "rot7-1-2-3" else load_corpus(name)
    m = mf.to_lie_model()       # checks d squared = 0: the first fills of d
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    build_report(mf)
    assert max(fills.values()) == 1
    maps = {op for op, _ in fills if isinstance(op, AlgebraMap)}
    assert len(maps) == (2 if m.automorphism is not None else 0)
    # d is read on every monomial below the top degree, one fill each
    d, alg = m.ce().d, m.algebra()
    assert {key for der, key in fills if der is d} == \
        {key for p in range(alg.top) for key in alg.basis(p)}


@pytest.mark.parametrize("name", ["rot7-1-2-3", "kx5"])
def test_a_report_factors_each_differential_once(monkeypatch, name):
    # Massey bounding cochains and kill rounds solve d x = b on several
    # complexes; d_matrix is cached, so its matrix object names the
    # (complex, degree) pair
    factored, solves, matrices = Counter(), [], []
    factor, solve_factored = linalg.factor, linalg.solve_factored

    def counting_factor(mat, ncols):
        matrices.append(mat)        # keeps each id unique while counting
        factored[id(mat)] += 1
        return factor(mat, ncols)

    def counting_solve(fac, rhs):
        solves.append(rhs)
        return solve_factored(fac, rhs)

    monkeypatch.setattr(linalg, "factor", counting_factor)
    monkeypatch.setattr(linalg, "solve_factored", counting_solve)
    build_report(loads(ROT7_123) if name == "rot7-1-2-3" else load_corpus(name))
    assert factored and max(factored.values()) == 1
    assert len(solves) > len(factored)


def report_model(name, monkeypatch):
    """A model file and the one LieModel its report is built on."""
    mf = loads(ROT7_123) if name == "rot7-1-2-3" else load_corpus(name)
    m = mf.to_lie_model()
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    return mf, m


@pytest.mark.parametrize("name", ["rot7-1-2-3", "kx5"])
def test_eta_operators_are_iota_and_lie_along_xi(monkeypatch, name):
    # eta is the dual of xi: rho_eta is iota_xi, d_eta is L_xi, and a report
    # takes one kernel, Omega_eta, for the quasi-isomorphism and the
    # splitting alike
    mf, m = report_model(name, monkeypatch)
    op = build_d_eta(m)
    assert op.rho is m.iota_xi() and op.d_eta is m.lie_xi()
    assert kernel_subcomplex(m.ce(), op.d_eta) is invariant_forms(m)
    build_report(mf)
    assert list(m.ce().kernels.items()) == [(m.lie_xi(), invariant_forms(m))]


def test_a_report_keeps_one_contraction_at_a_time(monkeypatch):
    # the report decides iota^2 = 0 and Cartan along xi from Leibniz
    # verdicts and generator images, with no word_disagreements pass; the
    # one contraction it tabulates is iota_xi (iota_1 on rot7, as xi = X1),
    # and iota_i for i != 1 only meets eta, for rho_eta's generator images
    mf, m = report_model("rot7-1-2-3", monkeypatch)
    honest_words, honest_iota = cdga.word_disagreements, LieModel.iota
    passes, contractions = [], []

    def counted(alg, identities):
        passes.append(identities)
        return honest_words(alg, identities)

    def recorded(self, vector):
        contractions.append(honest_iota(self, vector))
        return contractions[-1]

    monkeypatch.setattr(cdga, "word_disagreements", counted)
    monkeypatch.setattr(LieModel, "iota", recorded)
    assert build_report(mf)["ok"]
    assert not hasattr(report, "word_disagreements") and passes == []
    eta_keys = set(m.eta_element().terms)
    transverse = [iota for iota in contractions if iota is not m.iota_xi()]
    assert len(transverse) == m.dimension - 1
    for iota in transverse:
        assert set(iota._table) <= eta_keys
        assert "leibniz_failure" not in vars(iota)
