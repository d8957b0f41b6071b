"""Memory follows the live set: a complex owns what its cohomology has
computed, a ring is a view that keeps its complex alive, and a report leaves
nothing to the cyclic collector, so reference counting frees its complexes,
rings, operator tables and spans when it returns."""

import gc

import pytest

from cokahler import build_report, linalg, load_corpus, loads
from cokahler.cdga import Subcomplex, tensor_product

from test_cdga import abelian_dga
from test_linalg import counting_eliminations
from test_report_bytes import model_texts

# torus7 is flat; rot7-1-2-3 and kx5 are non-abelian co-Kahler; h3xR2 and
# nil5 are not co-Kahler; t2-rot4-mapping-torus takes the tensor_product path
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


def test_a_chained_view_keeps_its_complex_alive():
    # outside the asserts, whose rewriting would hold every temporary
    text = model_texts()["rot7-1-2-3"]
    ce = loads(text).to_lie_model().ce().cohomology().betti()
    product = tensor_product(abelian_dga(2), abelian_dga(1, "f")) \
        .cohomology().betti()
    assert ce == (1, 1, 3, 5, 5, 3, 1, 1)
    assert product == (1, 3, 3, 1)


@pytest.mark.parametrize("name", ["torus5", "rot7-1-2-3"])
def test_a_kernel_subcomplex_eliminates_each_degree_once(name):
    m = _model_file(name).to_lie_model()
    ce, lie = m.ce(), m.lie_xi()
    with counting_eliminations() as calls:
        sub = Subcomplex.kernel_of(ce, lie.matrix)
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
