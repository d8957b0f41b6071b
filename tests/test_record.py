"""``Record``: fields from annotations, one generated ``__init__`` per class,
fresh list and dict defaults, ``==`` on class and fields, and frozen
generators."""

import pytest

from cokahler.cohomology import InducedMap
from cokahler.errors import StructureError
from cokahler.exterior import Generator
from cokahler.geometry import AlmostContactVerdict
from cokahler.lefschetz import LefschetzDegree
from cokahler.modelfile import ModelFile
from cokahler.record import Fresh, Record
from cokahler.report import Section

INDUCED = dict(degree=1, matrix=[{0: 1}], source_dim=2, target_dim=3, rank=1,
               kernel_classes=[{1: 1}])


def test_positional_and_keyword_construction_agree():
    by_position = InducedMap(*INDUCED.values())
    by_keyword = InducedMap(**INDUCED)
    assert by_position == by_keyword and vars(by_position) == INDUCED
    assert by_position.injective is False and by_position.surjective is False
    with pytest.raises(TypeError):
        InducedMap(1, [], 2)
    with pytest.raises(TypeError):
        InducedMap(**INDUCED, rank_plus=1)


def test_defaults_are_plain_or_fresh_per_instance():
    first, second = Section(None), Section(None)
    assert first.asserted == [] and first.asserted is not second.asserted
    assert first.notes is not second.notes and first.hypothesis is None
    first.check("x", True, "inv")
    assert second.asserted == [] and Section(None).asserted == []
    assert AlmostContactVerdict(True).witnesses is not \
        AlmostContactVerdict(True).witnesses
    mf = ModelFile("m", 3)
    assert mf.brackets == [] and mf.brackets is not ModelFile("m", 3).brackets
    assert mf.metric is None and mf.automorphism is None
    given = []
    assert Section(None, given).asserted is given


def test_vars_hold_exactly_the_fields_in_order():
    assert list(vars(Section(None))) == ["record", "asserted", "notes",
                                         "hypothesis"]
    mf = ModelFile("m", 3)
    mf.xi = [1, 0, 0]
    assert list(vars(mf)) == ["name", "dimension", "brackets", "metric",
                              "xi", "eta", "J", "automorphism"]


def test_subclass_fields_follow_the_inherited_ones():
    ind = InducedMap(**INDUCED)
    lef = LefschetzDegree(**vars(ind), kernel_witnesses=["e1"])
    assert list(vars(lef)) == [*INDUCED, "kernel_witnesses"]
    assert lef == LefschetzDegree(*INDUCED.values(), ["e1"])
    assert lef != LefschetzDegree(*INDUCED.values(), ["e2"])
    assert lef.kernel_classes == [{1: 1}] and lef.injective is False


def test_equality_needs_the_same_class():
    ind = InducedMap(**INDUCED)
    lef = LefschetzDegree(**INDUCED, kernel_witnesses=[])
    assert ind != lef and lef != ind
    assert ind != INDUCED and ind != tuple(INDUCED.values())
    assert ind != InducedMap(**{**INDUCED, "rank": 2})


def test_records_are_unhashable():
    for record in (InducedMap(**INDUCED), Section(None), ModelFile("m", 3),
                   AlmostContactVerdict(False)):
        with pytest.raises(TypeError):
            hash(record)


def test_generator_is_frozen_hashable_and_checked():
    g = Generator("x", 1)
    with pytest.raises(AttributeError):
        g.degree = 2
    with pytest.raises(AttributeError):
        del g.name
    assert g.degree == 1 and vars(g) == {"name": "x", "degree": 1}
    assert g == Generator("x", 1) and hash(g) == hash(Generator("x", 1))
    assert g != Generator("x", 2) and g != Generator("y", 1)
    assert len({g, Generator("x", 1), Generator("y", 1)}) == 2
    assert Generator(degree=3, name="z").degree == 3
    with pytest.raises(StructureError, match="degree >= 1"):
        Generator("x", 0)


def test_repr_names_the_class_and_fields():
    assert repr(Generator("x", 1)) == "Generator(name='x', degree=1)"
    assert repr(Section({"a": 1})) == ("Section(record={'a': 1}, asserted=[], "
                                       "notes=[], hypothesis=None)")


def test_a_new_record_class():
    class Pair(Record):
        left: int
        right: list = Fresh(list)

    class Triple(Pair, frozen=True):
        extra: str = "e"

    assert vars(Pair(1)) == {"left": 1, "right": []}
    assert Pair(1).right is not Pair(1).right
    t = Triple(1, [2])
    assert vars(t) == {"left": 1, "right": [2], "extra": "e"}
    with pytest.raises(AttributeError):
        t.left = 2
