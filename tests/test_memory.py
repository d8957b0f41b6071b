"""Memory follows the live set: a complex owns what its cohomology has
computed, a ring is a view that keeps its complex alive, and a report leaves
nothing to the cyclic collector, so reference counting frees its complexes,
rings, operator tables and spans when it returns.  Each matrix is stored
once: an operator keeps only its monomial table, and a complex keeps d by
columns."""

import gc

import pytest

from cokahler import build_report, linalg, load_corpus, loads
from cokahler.cdga import CochainComplex, Subcomplex
from cokahler.cohomology import CohomologyRing
from cokahler.eta import invariant_forms
from cokahler.exterior import Generator

from test_cdga import abelian_dga
from test_linalg import counting_eliminations
from test_report_bytes import model_texts

# torus7 is flat; rot7-1-2-3 and kx5 are non-abelian co-Kahler; h3xR2 and
# nil5 are not co-Kahler; t2-rot4-mapping-torus extends its CE algebra by
# the circle
MODELS = ("torus7", "rot7-1-2-3", "kx5", "h3xR2", "nil5",
          "t2-rot4-mapping-torus")


def _model_file(name: str):
    text = model_texts().get(name)
    return load_corpus(name) if text is None else loads(text)


def _cyclic_garbage(run) -> list:
    """The objects that ``run()`` leaves only the cyclic collector to free."""
    gc.collect()
    flags, enabled = gc.get_debug(), gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


@pytest.mark.parametrize("name", MODELS)
def test_a_report_leaves_no_cycle(name):
    build_report(_model_file(name))     # warm-up: module-level caches
    left = _cyclic_garbage(lambda: build_report(_model_file(name)))
    ours = sorted({type(o).__qualname__ for o in left
                   if type(o).__module__.startswith("cokahler")})
    assert ours == []


def _matrix_stores(obj) -> list[str]:
    """The attributes of ``obj`` holding per-degree matrices: dicts whose
    values include lists of sparse vectors."""
    return [attr for attr, value in vars(obj).items()
            if isinstance(value, dict) and any(
                isinstance(v, list) and all(isinstance(r, dict) for r in v)
                for v in value.values())]


@pytest.mark.parametrize("name", MODELS)
def test_after_a_report_each_matrix_is_stored_once(name, monkeypatch):
    # d, iota_xi and L_xi keep their tables and no matrix: a second read
    # builds a new one; every complex on the CE algebra keeps d by columns,
    # one per basis vector, and its rows only for the caller
    mf = _model_file(name)
    m = mf.to_lie_model()
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    build_report(mf)
    ce = m.ce()
    operators = [ce.d] + ([m.iota_xi(), m.lie_xi()] if m.xi is not None
                            else [])
    for op in operators:
        assert _matrix_stores(op) == []
        for p in range(ce.top + 1):
            assert op.matrix(p) is not op.matrix(p)
    gc.collect()
    complexes = [cx for cx in gc.get_objects()
                 if isinstance(cx, CochainComplex) and cx.parent is ce]
    assert ce in complexes
    for cx in complexes:
        assert _matrix_stores(cx) == ["_columns"]
        for p, columns in cx._columns.items():
            assert len(columns) == cx.dim(p)
            assert cx.d_columns(p) is columns
            assert cx.d_matrix(p) is not cx.d_matrix(p)


def test_a_chained_view_keeps_its_complex_alive():
    # outside the asserts, whose rewriting would hold every temporary
    text = model_texts()["rot7-1-2-3"]
    ce = loads(text).to_lie_model().ce().cohomology().betti()
    product = abelian_dga(2).extend([Generator("f1", 1)], {}) \
        .cohomology().betti()
    assert ce == (1, 1, 3, 5, 5, 3, 1, 1)
    assert product == (1, 3, 3, 1)


@pytest.mark.parametrize("name", ["torus5", "rot7-1-2-3"])
def test_a_kernel_subcomplex_eliminates_each_degree_once(name):
    m = _model_file(name).to_lie_model()
    ce, lie = m.ce(), m.lie_xi()
    with counting_eliminations() as calls:
        sub = Subcomplex.kernel_of(ce, lie.columns, 0)
    # one elimination per degree: the kernel's Span keeps its rows
    assert len(calls) == ce.top + 1
    assert sum(map(sub.dim, range(ce.top + 1))) > ce.top + 1


def test_a_degree_with_zero_image_takes_one_kernel_elimination():
    ce = _model_file("torus5").to_lie_model().ce()
    # d = 0 on a torus: every degree's image is zero, and its kernel is H^p
    with counting_eliminations() as calls:
        assert ce.cohomology().betti() == (1, 5, 10, 10, 5, 1)
    assert len(calls) == ce.top + 1


def test_views_of_one_complex_compute_each_degree_once(monkeypatch):
    dga = load_corpus("heisenberg").to_lie_model().ce()
    kernels, products = [], []
    honest_kernel, honest_wedge = linalg.kernel_span, dga.wedge_coords

    def kernel_span(mat, ncols):
        kernels.append(ncols)
        return honest_kernel(mat, ncols)

    def wedge_coords(p, v, q, w):
        products.append((p, q))
        return honest_wedge(p, v, q, w)

    monkeypatch.setattr(linalg, "kernel_span", kernel_span)
    monkeypatch.setattr(dga, "wedge_coords", wedge_coords)
    first = dga.cohomology()
    assert first.betti() == (1, 2, 2, 1)
    assert len(kernels) == 4
    cups = [first.cup_basis(1, i, 1, j) for i in range(2) for j in range(2)]
    assert len(products) == 4
    second = dga.cohomology()
    assert second.betti() == (1, 2, 2, 1)
    assert [second.cup_basis(1, i, 1, j)
            for i in range(2) for j in range(2)] == cups
    assert len(kernels) == 4 and len(products) == 4


@pytest.mark.parametrize("name", ["torus7", "rot7-1-2-3"])
def test_a_report_computes_each_degree_of_the_full_cohomology_once(
        name, monkeypatch):
    # torus7's xi is central: Omega_eta is Omega itself, with no second
    # cohomology of the same dimensions; rot7-1-2-3's L_xi is not zero, and
    # its Omega_eta is the one kernel invariant_forms builds
    mf = _model_file(name)
    m = mf.to_lie_model()
    monkeypatch.setattr(mf, "to_lie_model", lambda: m)
    fills, honest = [], CohomologyRing._slice

    def counted(ring, p):
        if p not in ring._slices:
            fills.append((ring.complex, p))
        return honest(ring, p)

    monkeypatch.setattr(CohomologyRing, "_slice", counted)
    build_report(mf)
    ce = m.ce()
    assert sorted(p for cx, p in fills if cx is ce) == list(range(ce.top + 1))
    omega_eta = invariant_forms(m)
    whole = [cx for cx, _ in fills if cx is not ce and isinstance(
        cx, Subcomplex) and all(cx.dim(p) == ce.dim(p)
                                for p in range(ce.top + 1))]
    if name == "torus7":
        assert whole == []
        assert omega_eta is ce
    else:
        assert omega_eta is not ce
