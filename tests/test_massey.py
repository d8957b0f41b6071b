"""Triple Massey products and the degree-1 formality scan."""

from fractions import Fraction

import pytest

from cokahler import linalg, load_corpus, loads
from cokahler.cohomology import CohomologyRing
from cokahler.errors import StructureError
from cokahler.massey import degree_one_massey_scan, triple_massey

from test_report_bytes import model_texts


def unit(ring, p, i):
    return (p, {i: Fraction(1)})


def test_heisenberg_obstruction(heisenberg):
    dga = heisenberg.ce()
    ring = dga.cohomology()
    # H^1 basis is ([e1], [e2]); <[e1],[e2],[e2]> is the classic obstruction
    triple = triple_massey(ring, unit(ring, 1, 0), unit(ring, 1, 1),
                           unit(ring, 1, 1))
    assert not triple.vanishes
    assert triple.indeterminacy_dim == 0
    # oracle: e1^e2 = -d(e3), so the bounding cochain is -e3 and the value
    # is (-e3)^e2 = e2^e3
    assert dga.element(1, triple.bounding_xy) == \
        dga.algebra.gen("e3").scale(-1)
    assert dga.element(2, triple.value_cochain) == \
        dga.algebra.monomial("e2", "e3")
    # the value class is proportional to [e2^e3]
    rep = ring.representative_of(2, triple.value_class)
    assert dga.element(2, rep) == dga.algebra.monomial("e2", "e3")


def test_value_is_closed_and_bounding_cochains_bound(heisenberg):
    dga = heisenberg.ce()
    ring = dga.cohomology()
    for i, j, k in ((0, 1, 1), (0, 1, 0), (1, 0, 1)):
        triple = triple_massey(ring, unit(ring, 1, i), unit(ring, 1, j),
                               unit(ring, 1, k))
        value = dga.element(2, triple.value_cochain)
        assert dga.d.apply(value).is_zero()
        # d(U) literally reproduces the vanishing products
        a = dga.element(1, ring.representative_of(1, triple.x))
        b = dga.element(1, ring.representative_of(1, triple.y))
        c = dga.element(1, ring.representative_of(1, triple.z))
        assert dga.d.apply(dga.element(1, triple.bounding_xy)) == a.wedge(b)
        assert dga.d.apply(dga.element(1, triple.bounding_yz)) == b.wedge(c)


def test_verdict_stable_under_pivot_reordering(heisenberg):
    # another pivot order moves the bounding cochain U by a cocycle c, which
    # moves the value by c ^ rep(z); the class of c ^ rep(z) lies in the
    # indeterminacy, so every moved value gets the same verdict
    dga = heisenberg.ce()
    ring = dga.cohomology()
    cocycles = linalg.kernel_span(dga.d_matrix(1), dga.dim(1)).rows
    assert cocycles
    for i, j, k in ((0, 1, 1), (1, 0, 1), (0, 0, 0)):
        triple = triple_massey(ring, unit(ring, 1, i), unit(ring, 1, j),
                               unit(ring, 1, k))
        z = ring.representative_of(1, triple.z)
        for c in cocycles:
            shift = dga.wedge_coords(1, c, 1, z)
            n = dga.dim(2)
            moved = [w + s for w, s in zip(linalg.dense(triple.value_cochain, n),
                                           linalg.dense(shift, n))]
            moved_class = ring.class_of(2, linalg.sparse(moved))
            assert (moved_class in triple.indeterminacy) == triple.vanishes


def test_nonzero_products_refused(torus3):
    ring = torus3.ce().cohomology()
    # on the torus [e1].[e2] = [e1^e2] != 0, so <e1, e1, e2> is undefined
    with pytest.raises(StructureError):
        triple_massey(ring, unit(ring, 1, 0), unit(ring, 1, 0),
                      unit(ring, 1, 1))


def test_torus_triples_vanish(torus3):
    ring = torus3.ce().cohomology()
    # <e1, e1, e1> is defined (e1.e1 = 0) and vanishes: d = 0 allows zero
    # bounding cochains
    triple = triple_massey(ring, unit(ring, 1, 0), unit(ring, 1, 0),
                           unit(ring, 1, 0))
    assert triple.vanishes
    assert not triple.bounding_xy
    assert not triple.value_cochain


def test_zero_class_input_vanishes(heisenberg):
    ring = heisenberg.ce().cohomology()
    zero = (1, linalg.sparse([Fraction(0), Fraction(0)]))
    triple = triple_massey(ring, zero, unit(ring, 1, 1), unit(ring, 1, 1))
    assert triple.vanishes
    assert not triple.value_class


def test_scan_statuses(contact_models):
    for m in contact_models:
        scan = degree_one_massey_scan(m.ce().cohomology())
        if m.name == "heisenberg":
            assert scan.obstructed
            assert len(scan.triples) == 8     # all pairwise products vanish
        else:
            assert scan.status == "no obstruction among basis triples"
            assert all(t.vanishes for _, t in scan.triples)


def test_scan_on_cokahler_models_all_vanish(cokahler_models):
    for m in cokahler_models:
        scan = degree_one_massey_scan(m.ce().cohomology())
        assert not scan.obstructed


@pytest.mark.parametrize("name", ["heisenberg", "h3xR2"])
def test_indeterminacy_reads_the_cached_basis_cups(name, monkeypatch):
    # x H + H z by bilinearity from cup_basis equals the span of the cup
    # products taken class by class, and the scan cups nothing else
    text = model_texts().get(name)
    m = (load_corpus(name) if text is None else loads(text)).to_lie_model()
    ring = m.ce().cohomology()
    calls = []
    cup = CohomologyRing.cup
    monkeypatch.setattr(CohomologyRing, "cup",
                        lambda self, *args: calls.append(args)
                        or cup(self, *args))
    scan = degree_one_massey_scan(ring)
    n1 = ring.dim(1)
    assert scan.triples and len(calls) == n1 * n1
    assert {(p, i, q, j) for p, (i,), q, (j,) in calls} == \
        {(1, i, 1, j) for i in range(n1) for j in range(n1)}
    for _, t in scan.triples:
        (px, _, pz), s = t.degrees, t.value_degree
        cups = [cup(ring, px, t.x, s - px, {i: 1})
                for i in range(ring.dim(s - px))]
        cups += [cup(ring, s - pz, {i: 1}, pz, t.z)
                 for i in range(ring.dim(s - pz))]
        assert t.indeterminacy == linalg.Span(cups)
