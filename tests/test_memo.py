"""Derived objects are built once per model and shared, never across models;
a derivation expands each basis monomial once, and equal derivations are one
operator."""

import math
from collections import Counter

import pytest

from cokahler import cdga, eta, linalg
from cokahler.cdga import AlgebraMap, CochainComplex, Derivation
from cokahler.errors import StructureError
from cokahler.eta import (basic_complex, build_d_eta, invariant_forms,
                          omega_splitting, verify_parallel_form_quism)
from cokahler.geometry import (LieModel, classify, omega_element,
                               validate_almost_contact)
from cokahler.modelfile import load_corpus, loads
from cokahler.report import build_report
from test_report_bytes import pinned_text

BUILDERS = {
    "algebra": lambda m: m.algebra(),
    "ce": lambda m: m.ce(),
    "metric_inverse": lambda m: m.metric_inverse(),
    "levi_civita": lambda m: m.levi_civita(),
    "lie_xi": lambda m: m.lie_xi(),
    "nabla": lambda m: m.nabla(),
    "classify": classify,
    "omega_element": omega_element,
    "build_d_eta": build_d_eta,
    "invariant_forms": invariant_forms,
    "omega_splitting": omega_splitting,
    "basic_complex": basic_complex,
    "verify_parallel_form_quism": verify_parallel_form_quism,
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
    # complexes; d's rows are built afresh for each elimination, so each
    # row matrix is traced back to the (complex, degree) it was read from
    factored, solves, origin = Counter(), [], {}
    factor, solve_factored = linalg.factor, linalg.solve_factored
    d_matrix = CochainComplex.d_matrix

    def traced_d_matrix(cx, p):
        rows = d_matrix(cx, p)
        origin[id(rows)] = (rows, cx, p)    # keeps each id unique
        return rows

    def counting_factor(mat, ncols):
        if id(mat) in origin:               # not the metric's inverse
            _, cx, p = origin[id(mat)]
            factored[cx, p] += 1
        return factor(mat, ncols)

    def counting_solve(fac, rhs):
        solves.append(rhs)
        return solve_factored(fac, rhs)

    monkeypatch.setattr(CochainComplex, "d_matrix", traced_d_matrix)
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
    # takes one kernel, Omega_eta = invariant_forms(m), for the
    # quasi-isomorphism, as the splitting and Lefschetz sections read it by
    # that name; kx5's xi is central, so that kernel is Omega itself
    mf, m = report_model(name, monkeypatch)
    op = build_d_eta(m)
    assert op.rho is m.iota_xi() and op.d_eta is m.lie_xi()
    included, honest = [], eta.inclusion_induced_map

    def spy(sub, p):
        included.append(sub)
        return honest(sub, p)

    monkeypatch.setattr(eta, "inclusion_induced_map", spy)
    build_report(mf)
    assert len(included) == m.ce().top + 1
    assert all(sub is invariant_forms(m) for sub in included)
    assert (invariant_forms(m) is m.ce()) == (name == "kx5")


def test_a_report_keeps_one_contraction_at_a_time(monkeypatch):
    # the report decides iota^2 = 0 and Cartan along xi from Leibniz
    # verdicts and generator images; the one contraction it tabulates is
    # iota_xi (iota_1 on rot7, as xi = X1), and iota_i for i != 1 only meets
    # eta, for rho_eta's generator images
    mf, m = report_model("rot7-1-2-3", monkeypatch)
    honest_iota, contractions = LieModel.iota, []

    def recorded(self, vector):
        contractions.append(honest_iota(self, vector))
        return contractions[-1]

    monkeypatch.setattr(LieModel, "iota", recorded)
    assert build_report(mf)["ok"]
    eta_keys = set(m.eta_element().terms)
    transverse = [iota for iota in contractions if iota is not m.iota_xi()]
    assert len(transverse) == m.dimension - 1
    for iota in transverse:
        assert set(iota._table) <= eta_keys
        assert "leibniz_failure" not in vars(iota)


@pytest.mark.parametrize("name", ["rot7-1-2-3", "rot7-1-2-3-conj", "torus5"])
def test_omega_eta_and_omega1_eliminate_on_the_fibre(monkeypatch, name):
    # with xi = X1 and L_xi e1 = 0 (rot7-1-2-3, torus5), Omega_1 is one
    # kernel of L_xi on the fibre, the monomials without e1, so each
    # elimination has C(n-1, p) columns and reads L_xi's table, never its
    # columns; Omega_eta is then Omega_1 + e1 ^ Omega_1, assembled with no
    # kernel and no reduction, or Omega itself where L_xi vanishes (torus5).
    # On rot7-1-2-3-conj xi is not a basis vector: Omega_eta is L_xi's
    # kernel on Omega, its columns read once per degree, and Omega_1 is cut
    # out inside it, each elimination dim Omega_eta^p wide
    text = pinned_text(name) if name != "rot7-1-2-3" else ROT7_123
    mf = load_corpus(name) if text is None else loads(text)
    m = mf.to_lie_model()
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    reads, widths, reductions = Counter(), [], []
    honest_columns, honest_kernel, honest_rref = \
        cdga._MonomialTable.columns, linalg.kernel_span, linalg.rref

    def counted_columns(op, p, start=0):
        if op is m.lie_xi():
            reads[p] += 1
        return honest_columns(op, p, start)

    def measured_kernel(mat, ncols):
        widths.append(ncols)
        return honest_kernel(mat, ncols)

    def counted_rref(mat):
        reductions.append(mat)
        return honest_rref(mat)

    monkeypatch.setattr(cdga._MonomialTable, "columns", counted_columns)
    monkeypatch.setattr(linalg, "kernel_span", measured_kernel)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    top = m.ce().top
    if name == "rot7-1-2-3-conj":
        omega_eta = invariant_forms(m)
        del widths[:]
        basic_complex(m)
        assert widths == [omega_eta.dim(p) for p in range(top + 1)]
    else:
        basic_complex(m)
        assert widths == [math.comb(top - 1, p) for p in range(top + 1)]
        del widths[:]
        omega_eta = invariant_forms(m)
        assert widths == [] and reductions == []
    monkeypatch.setattr(linalg, "kernel_span", honest_kernel)
    monkeypatch.setattr(linalg, "rref", honest_rref)
    assert build_report(mf)["ok"]
    if name == "torus5":
        assert omega_eta is m.ce() and reads == Counter()
    elif name == "rot7-1-2-3":
        assert omega_eta is not m.ce() and reads == Counter()
    else:
        assert sorted(reads) == list(range(top + 1))
        assert max(reads.values()) == 1
