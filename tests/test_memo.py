"""Derived objects are built once per model and shared, never across models."""

import pytest

from cokahler.errors import StructureError
from cokahler.eta import (basic_complex, build_d_eta, invariant_forms,
                          omega_splitting)
from cokahler.geometry import LieModel, classify, omega_element
from cokahler.modelfile import load_corpus

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
