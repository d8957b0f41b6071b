"""Bounded-degree Sullivan models, and ℳ(Omega) of a co-Kahler model built
as ℳ(Omega_1) (x) Λ(eta)."""

import importlib.util
import itertools
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from cokahler import linalg, load_corpus, loads, minimal
from cokahler.cdga import DGA, Derivation, Subcomplex
from cokahler.cli import main
from cokahler.cohomology import CohomologyRing, InducedMap
from cokahler.errors import StructureError
from cokahler.eta import (invariant_forms, model_tensor_split_check,
                          omega_splitting)
from cokahler.exterior import Generator, GradedAlgebra
from cokahler.minimal import (_ComparisonMap, _extend_surjective,
                              circle_extension, minimal_model)
from cokahler.modelfile import ModelFile
from cokahler.report import run_section

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def perfbench_models():
    """The benchmark's model generators, read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_models", PERFBENCH / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models


def test_torus3_is_its_own_model(torus3):
    mm = minimal_model(torus3.ce(), 3)
    assert mm.generator_counts() == {1: 3}
    assert mm.minimal and mm.quasi_iso
    # free algebra with zero differential: every generator is closed
    assert all(mm.dga.d.apply(mm.dga.algebra.gen(i)).is_zero()
               for i in range(3))


def test_heisenberg_model_shape(heisenberg):
    mm = minimal_model(heisenberg.ce(), 3)
    assert mm.generator_counts() == {1: 3}
    assert mm.minimal and mm.quasi_iso
    alg = mm.dga.algebra
    images = [mm.dga.d.apply(alg.gen(i)) for i in range(3)]
    nonzero = [img for img in images if not img.is_zero()]
    # exactly one generator has a differential, and it is x1 ^ x2
    assert len(nonzero) == 1
    assert nonzero[0] == alg.monomial(0, 1)


def test_even_degree_target_skips_degree_one():
    # H^1 = 0: the degree-1 stage adds nothing
    alg = GradedAlgebra([Generator("a", 2)], max_degree=5)
    dga = DGA(alg, Derivation(alg, 1, {}))
    mm = minimal_model(dga, 3)
    assert mm.generator_counts() == {2: 1}
    assert mm.minimal and mm.quasi_iso


def test_sphere_like_target_with_relation():
    # target: free on a (deg 2), b (deg 3), db = a^2 -- an S^2 model
    alg = GradedAlgebra([Generator("a", 2), Generator("b", 3)], max_degree=6)
    a = alg.gen("a")
    dga = DGA(alg, Derivation(alg, 1, {1: a.wedge(a)}))
    mm = minimal_model(dga, 4)
    assert mm.generator_counts() == {2: 1, 3: 1}
    assert mm.minimal and mm.quasi_iso
    # the degree-3 generator kills [a^2]
    img = next(mm.dga.d.apply(mm.dga.algebra.gen(i))
               for i, g in enumerate(mm.dga.algebra.generators)
               if g.degree == 3)
    assert not img.is_zero()
    assert all(len(mm.dga.algebra.key_indices(k)) == 2 for k in img.terms)


def test_cap_below_one_refused(torus3):
    with pytest.raises(StructureError):
        minimal_model(torus3.ce(), 0)


def test_disconnected_target_refused(torus3):
    # a subcomplex without the constants has H^0 = 0
    from cokahler.cdga import Subcomplex
    spans = {1: [dict(v) for v in
                 torus3.ce().d_matrix(0)] or [linalg.sparse([1, 0, 0])]}
    spans = {1: [linalg.sparse([1, 0, 0])]}
    sub = Subcomplex(torus3.ce(), spans)
    with pytest.raises(StructureError):
        minimal_model(sub, 2)


def test_models_of_subcomplexes(torus3, torus5):
    for m, expect in ((torus3, 2), (torus5, 4)):
        mm = minimal_model(omega_splitting(m), 3)
        assert mm.generator_counts() == {1: expect}
        assert mm.minimal and mm.quasi_iso


def tensor_split(m, cap):
    """ℳ(Omega_1) and ℳ(Omega) built from it, as the report builds them."""
    basic = minimal_model(omega_splitting(m), cap)
    return basic, model_tensor_split_check(m, basic)


def test_tensor_split_on_cokahler_models(torus3, torus5):
    # ℳ(Omega_1), extended by a closed t -> eta, checked as the model of
    # Omega itself: one generator more, in degree 1
    for m, n in ((torus3, 3), (torus5, 5)):
        basic, mm = tensor_split(m, 3)
        assert basic.comparison.target is omega_splitting(m)
        assert mm.comparison.target is m.ce()
        assert basic.generator_counts() == {1: n - 1}
        assert mm.generator_counts() == {1: n}
        assert basic.minimal and basic.quasi_iso
        assert mm.minimal and mm.quasi_iso
        t = len(mm.dga.algebra) - 1
        assert mm.dga.d.apply(mm.dga.algebra.gen(t)).is_zero()
        assert mm.comparison.images[t] == m.ce().coords(1, m.eta_element())
    ring = tensor_split(torus3, 3)[1].dga.cohomology()
    assert ring.betti() == (1, 3, 3, 1)


def test_tensor_split_degenerate_cap(torus3):
    basic, mm = tensor_split(torus3, 1)
    assert basic.generator_counts() == {1: 2}
    assert mm.generator_counts() == {1: 3}
    assert mm.iso_degrees == [True, True] and mm.injective_above


def test_tensor_split_requires_cokahler(heisenberg):
    with pytest.raises(StructureError):
        model_tensor_split_check(heisenberg, minimal_model(heisenberg.ce(), 3))


def test_tensor_split_refuses_a_model_of_another_complex(torus3):
    # ℳ(Omega) passed where ℳ(Omega_1) belongs
    with pytest.raises(StructureError, match="basic complex"):
        model_tensor_split_check(torus3, minimal_model(torus3.ce(), 3))


@pytest.mark.parametrize("label", ["kx5", "rot7-1-2-3"])
def test_a_circle_generator_sent_to_zero_fails_the_model(label):
    # t -> 0 in place of t -> eta: still a chain map, but [eta] is not
    # reached, so H^1 is not an isomorphism
    basic, mm = tensor_split(model_of(label), 3)
    wrong = circle_extension(basic, {})
    assert wrong.generator_counts() == mm.generator_counts()
    assert wrong.minimal and wrong.iso_degrees[1] is False
    assert mm.iso_degrees == [True] * 4


def test_a_cokahler_report_builds_one_minimal_model(capsys, monkeypatch,
                                                    tmp_path):
    # ℳ(Omega_1) on a co-Kahler model, extended to ℳ(Omega) by t -> eta;
    # ℳ(Omega) itself elsewhere: minimal_model runs once per command,
    # wherever the package binds it
    targets, models = [], []
    build, to_lie_model = minimal.minimal_model, ModelFile.to_lie_model

    def counting(target, cap):
        targets.append(target)
        return build(target, cap)

    def recording(mf):
        models.append(to_lie_model(mf))
        return models[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cokahler" and \
                vars(module).get("minimal_model") is build:
            monkeypatch.setattr(module, "minimal_model", counting)
    monkeypatch.setattr(ModelFile, "to_lie_model", recording)
    path = tmp_path / "rot7-1-2-3.model"
    path.write_text(perfbench_models().rot_text((1, 2, 3)))
    for model in ("kx5", str(path), "heisenberg"):
        for command in ("report", "minimal"):
            targets.clear()
            models.clear()
            assert main([command, model]) == 0
            (m,) = models
            assert len(targets) == 1, (model, command)
            assert targets[0] is (m.ce() if model == "heisenberg"
                                  else omega_splitting(m))
    capsys.readouterr()


@pytest.mark.parametrize("label", ["heisenberg", "nil5"])
def test_non_nilpotent_target_fails_fast(label):
    # Omega_eta of these models has a non-nilpotent ring (for Heisenberg,
    # zero differential and e2 . e2^e3 = 0, which spawns an infinite degree-2
    # tower, as for a wedge of spheres); every kill round leaves a new
    # kernel, so the construction must stop at the round bound, not grind
    mf = load_corpus(label) if label == "heisenberg" else \
        loads(perfbench_models().nil5_text())
    m = mf.to_lie_model()
    with pytest.raises(StructureError, match="did not stabilize"):
        minimal_model(invariant_forms(m), 3)


@pytest.mark.parametrize("weights, counts", [
    # Sym^2 of the nine invariant 2-classes maps onto the nine
    # (2,2)-classes of H^4, leaving 45 - 9 = 36 degree-3 generators
    ((1, 1, 1), {1: 1, 2: 9, 3: 36}),
    ((1, 1, 2), {1: 1, 2: 5, 3: 12}),
], ids=["1-1-1", "1-1-2"])
def test_rot7_with_repeated_weights(weights, counts, capsys, tmp_path):
    text = perfbench_models().rot_text(weights)
    sec = run_section(loads(text).to_lie_model(), "minimal_model")
    assert {r["check"]: r["ok"] for r in sec.asserted} == {
        "minimal_model": True, "minimal_model_tensor_split": True}
    assert sec.record["generator_counts"] == counts
    path = tmp_path / "rot7.model"
    path.write_text(text)
    assert main(["minimal", str(path)]) == 0
    assert f"generators by degree: {counts}" in capsys.readouterr().out


def test_quasi_iso_matrices_are_chain_maps(heisenberg):
    mm = minimal_model(heisenberg.ce(), 3)
    target = heisenberg.ce()
    for i, gen in enumerate(mm.dga.algebra.generators):
        pushed_d = mm.comparison.push(mm.dga.d.apply(mm.dga.algebra.gen(i)))
        import cokahler.linalg as la
        d_pushed = la.mat_vec(target.d_matrix(gen.degree),
                              mm.comparison.images[i])
        assert pushed_d == d_pushed


def test_each_generator_product_is_pushed_once_per_call(monkeypatch):
    # Omega_eta of rot7-1-1-2 needs kill rounds: one model grows by an
    # extension per round, each of the one before, and the table of
    # products of images serves every extension
    m = loads(perfbench_models().rot_text((1, 1, 2))).to_lie_model()
    target = invariant_forms(m)
    wedges, extensions = [], []
    wedge_coords, extend = target.wedge_coords, DGA.extend

    def counting_wedge(*args):
        wedges.append(args)
        return wedge_coords(*args)

    def recording_extend(self, generators, images):
        extensions.append((self, extend(self, generators, images)))
        return extensions[-1][1]

    monkeypatch.setattr(target, "wedge_coords", counting_wedge)
    monkeypatch.setattr(DGA, "extend", recording_extend)
    mm = minimal_model(target, 3)
    assert len(extensions) >= 3
    for (_, grown), (base, _) in itertools.pairwise(extensions):
        assert base is grown
    assert extensions[-1][1] is mm.dga
    assert len(extensions[0][0].algebra) == 0
    # one product per entry past the unit: no entry is computed twice
    assert len(wedges) == len(mm.comparison.table) - 1 > 0
    # each entry is the product of the images, wedged left to right
    alg = mm.dga.algebra
    for p in range(target.top + 1):
        for key in alg.basis(p):
            vec, deg = {0: Fraction(1)}, 0
            for i in alg.key_indices(key):
                vec = wedge_coords(deg, vec, alg.degree_of(i),
                                   mm.comparison.images[i])
                deg += alg.degree_of(i)
            assert mm.comparison.push(
                alg.element(p, {alg.basis_index(p)[key]: 1})) == vec


def model_of(label: str):
    """A corpus or rot model."""
    if label.startswith("rot"):
        weights = tuple(map(int, label.split("-")[1:]))
        return loads(perfbench_models().rot_text(weights)).to_lie_model()
    return load_corpus(label).to_lie_model()


def model_targets(label: str):
    """The full complex and, on a co-Kahler model, the basic complex of a
    corpus or rot model."""
    m = model_of(label)
    if label == "heisenberg":
        return (m.ce(),)
    return m.ce(), omega_splitting(m)


def expansions_and_slices(monkeypatch, target, cap):
    """minimal_model(target, cap), with each d expansion of a model
    monomial (named by its generators) and, in call order, each model
    extension (its least new degree) and each model cohomology degree
    computed."""
    expanded, events = Counter(), []
    expand, extend, slice_ = Derivation._expand, DGA.extend, \
        CohomologyRing._slice

    def counting_expand(self, key):
        names = self.algebra.generators
        if names and names[0].name == "x1":
            expanded[tuple(names[i].name
                           for i in self.algebra.key_indices(key))] += 1
        return expand(self, key)

    def recording_extend(self, generators, images):
        events.append(("extend", min(g.degree for g in generators)))
        return extend(self, generators, images)

    def recording_slice(self, p):
        if p not in self._slices and self.complex is not target:
            events.append(("slice", p))
        return slice_(self, p)

    monkeypatch.setattr(Derivation, "_expand", counting_expand)
    monkeypatch.setattr(DGA, "extend", recording_extend)
    monkeypatch.setattr(CohomologyRing, "_slice", recording_slice)
    return minimal_model(target, cap), expanded, events


@pytest.mark.parametrize("label", ["heisenberg", "kx5", "rot7-1-1-2",
                                   "rot7-1-1-1"])
def test_each_model_monomial_is_expanded_once(monkeypatch, label):
    # twice at most for a monomial on degree-1 generators only, which
    # were expanded on bitmask keys before a generator of degree 2 came
    target = model_targets(label)[0]
    mm, expanded, _ = expansions_and_slices(monkeypatch, target, 3)
    alg = mm.dga.algebra
    assert expanded
    for names, count in expanded.items():
        degrees = {alg.degree_of(alg.index(name)) for name in names}
        assert count == 1 or count == 2 and degrees == {1}, (names, count)
    if alg.bitmask:
        assert set(expanded.values()) == {1}


@pytest.mark.parametrize("label, which", [
    ("heisenberg", 0), ("kx5", 0), ("kx5", 1), ("rot7-1-1-2", 0),
    ("rot7-1-1-2", 1), ("rot7-3-3-4", 0), ("rot7-3-3-4", 1)])
def test_no_degree_below_the_newest_generator_is_recomputed(monkeypatch,
                                                            label, which):
    # a degree-p generator changes no cochain, differential or class
    # below degree p: a degree computed once is computed again only after
    # a generator of at most its degree arrives (which 1: the basic complex)
    target = model_targets(label)[which]
    _, _, events = expansions_and_slices(monkeypatch, target, 3)
    computed: set[int] = set()
    for kind, degree in events:
        if kind == "extend":
            computed = {q for q in computed if q < degree}
        else:
            assert degree not in computed, events
            computed.add(degree)
    assert sum(kind == "extend" for kind, _ in events) >= 2


# Generator counts of the model of the full complex and of the basic
# complex at cap 3, as the model rebuilt once per kill round read them;
# every one of these models is minimal, an isomorphism on H^p for p <= cap
# and injective in degree cap + 1
PINNED_COUNTS = {
    "torus3": ({1: 3}, {1: 2}),
    "torus5": ({1: 5}, {1: 4}),
    "kx5": ({1: 3, 2: 1, 3: 1}, {1: 2, 2: 1, 3: 1}),
    "rot7-1-1-1": ({1: 1, 2: 9, 3: 36}, {2: 9, 3: 36}),
    "rot7-1-1-2": ({1: 1, 2: 5, 3: 12}, {2: 5, 3: 12}),
    "rot7-1-2-3": ({1: 1, 2: 3, 3: 5}, {2: 3, 3: 5}),
    "rot7-1-2-4": ({1: 1, 2: 3, 3: 3}, {2: 3, 3: 3}),
    "rot7-1-3-4": ({1: 1, 2: 3, 3: 5}, {2: 3, 3: 5}),
    "rot7-2-3-4": ({1: 1, 2: 3, 3: 3}, {2: 3, 3: 3}),
    "rot7-2-2-4": ({1: 1, 2: 5, 3: 12}, {2: 5, 3: 12}),
    **{f"rot7-{a}-{b}-{c}": ({1: 1, 2: 5, 3: 10}, {2: 5, 3: 10})
       for a, b, c in [(1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 3, 3),
                       (1, 4, 4), (2, 2, 3), (2, 3, 3), (2, 4, 4),
                       (3, 3, 4), (3, 4, 4)]},
}


def assert_exact_model(mm, counts, cap):
    assert mm.generator_counts() == counts
    assert mm.minimal and mm.iso_degrees == [True] * (cap + 1)
    assert mm.injective_above


@pytest.mark.parametrize("label", sorted(PINNED_COUNTS))
def test_models_match_the_pinned_counts(label):
    for target, counts in zip(model_targets(label), PINNED_COUNTS[label]):
        assert_exact_model(minimal_model(target, 3), counts, 3)
    # the report's ℳ(Omega): ℳ(Omega_1) extended by t -> eta
    basic, mm = tensor_split(model_of(label), 3)
    assert_exact_model(basic, PINNED_COUNTS[label][1], 3)
    assert_exact_model(mm, PINNED_COUNTS[label][0], 3)


def test_rot9_with_repeated_weights_at_cap_four():
    ce, omega1 = model_targets("rot9-1-1-1-1")
    assert_exact_model(minimal_model(ce, 4),
                       {1: 1, 2: 16, 3: 100, 4: 800}, 4)
    assert_exact_model(minimal_model(omega1, 4), {2: 16, 3: 100, 4: 800}, 4)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_heisenberg_model_at_every_cap(cap):
    assert_exact_model(minimal_model(model_targets("heisenberg")[0], cap),
                       {1: 3}, cap)


def test_push_into_a_subcomplex_checks_every_product(torus3):
    # span(1; e1, e2; nothing above) is closed under d = 0 but not under
    # products: the push of x1 x2 lands on e1 ^ e2, outside the target
    sub = Subcomplex(torus3.ce(), {0: [{0: Fraction(1)}],
                                   1: [linalg.sparse([1, 0, 0]),
                                       linalg.sparse([0, 1, 0])]})
    comparison = _ComparisonMap(sub)
    comparison.images += [{0: Fraction(1)}, {1: Fraction(1)}]
    alg = GradedAlgebra([Generator("x1", 1), Generator("x2", 1)])
    assert comparison.push(alg.gen(1)) == {1: Fraction(1)}
    for _ in range(2):      # a failed entry is not written
        with pytest.raises(StructureError, match="not in the degree 2"):
            comparison.push(alg.monomial(0, 1))
    with pytest.raises(StructureError, match="not in the degree 2 subspace"):
        minimal_model(sub, 2)


class SurjectivityFake:
    """A builder whose model maps H^p onto span(e_0 + e_1) in a
    3-dimensional H^p of the target; it records the classes it is given."""

    def __init__(self):
        self.target = self
        self.added = []

    def cohomology(self):
        return self

    def dim(self, p):
        return 3

    def representative_of(self, p, class_coords):
        return dict(class_coords)

    def induced_map(self, p):
        return InducedMap(p, [linalg.sparse(row) for row in ([1], [1], [0])],
                          1, 3, 1, [])

    def add_generator(self, degree, d_image, target_coords):
        assert d_image is None
        self.added.append(linalg.dense(target_coords, 3))


def test_extend_surjective_adds_the_greedy_classes():
    # e_0 is outside span(e_0 + e_1); e_1 then lies in span(e_0 + e_1, e_0)
    fake = SurjectivityFake()
    _extend_surjective(fake, 2)
    assert fake.added == [[1, 0, 0], [0, 0, 1]]
