"""A section's record is its result, and an oracle for Omega_eta and Omega_1.

The classification, quasi-isomorphism and mapping-torus records are the
fields of ``classify``, ``verify_parallel_form_quism`` and
``mapping_torus_model`` as they stand, and the splitting record is its two
dimension lists in front of ``splitting_check``'s fields; a record holds
lists, never tuples, so it compares equal to the data its JSON reads back
as.  ``omega_oracle`` recomputes the splitting record and the
quasi-isomorphism ranks from the model text with sympy.
"""

import pytest

from cokahler import build_report, loads
from cokahler.eta import invariant_forms, omega_splitting, \
    verify_parallel_form_quism
from cokahler.geometry import classify
from cokahler.lefschetz import mapping_torus_model, splitting_check
from cokahler.modelfile import CORPUS_MODELS, corpus_path
from cokahler.report import SECTIONS, _missing, run_section

from omega_oracle import Oracle, parse_xi, perfbench_oracle
from test_report_bytes import LABELS, PINNED, model_texts, pinned_text

NAMES = sorted({*CORPUS_MODELS, *PINNED, *LABELS})


def model_text(name: str) -> str:
    """The text of a corpus, ``PINNED`` or ``LABELS`` model."""
    text = model_texts()[name] if name in LABELS else \
        pinned_text(name) if name in PINNED else None
    return corpus_path(name).read_text() if text is None else text


def tuples(value) -> list:
    """Every tuple in a record."""
    if isinstance(value, tuple):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [t for v in value for t in tuples(v)]
    return []


def results(m) -> dict:
    """The result each of the four sections writes as its record."""
    return {
        "classification": lambda: vars(classify(m)),
        "parallel_form_quism": lambda: vars(verify_parallel_form_quism(m)),
        "splitting": lambda: {
            "omega_eta_dims": [invariant_forms(m).dim(p)
                               for p in range(m.ce().top + 1)],
            "omega1_dims": [omega_splitting(m).dim(p)
                            for p in range(m.ce().top + 1)],
            **vars(splitting_check(m))},
        "mapping_torus": lambda: vars(
            mapping_torus_model(m.ce(), *m.automorphism)),
    }


@pytest.mark.parametrize("name", NAMES)
def test_each_section_record_is_its_result(name):
    m = loads(model_text(name)).to_lie_model()
    for key, result in results(m).items():
        if _missing(m, SECTIONS[key]):
            continue
        record = run_section(m, key).record
        if record is not None:
            assert record == result(), key
            assert tuples(record) == [], key


def oracle_applies(name: str) -> bool:
    """A model with a xi, of dimension at most 7: Lambda^p of dimension 8
    and up is too large for a quick sympy nullspace."""
    text = model_text(name)
    dim = perfbench_oracle().parse(text)["dimension"]
    return dim <= 7 and parse_xi(text, dim) is not None


ORACLE_NAMES = [name for name in NAMES if oracle_applies(name)]


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_omega_eta_and_omega1_match_an_oracle(name):
    text = model_text(name)
    report, oracle = build_report(loads(text)), Oracle(text)
    compared = 0
    if "splitting" in report:
        rec = report["splitting"]
        degrees = range(oracle.dim + 1)
        assert rec["omega_eta_dims"] == [
            oracle.omega_eta(p).shape[1] for p in degrees]
        assert rec["omega1_dims"] == [
            oracle.omega1(p).shape[1] for p in degrees]
        assert rec["betti_eta"] == oracle.betti(oracle.omega_eta)
        assert rec["betti_omega1"] == oracle.betti(oracle.omega1)
        compared += 1
    # ker(d_eta) is Omega_eta exactly when eta is the metric dual of xi
    if any(r["check"] == "d_eta_equals_lie" for r in report["asserted"]):
        assert report["parallel_form_quism"]["ranks"] == \
            oracle.inclusion_ranks(oracle.omega_eta)
        compared += 1
    assert compared, "the oracle compared nothing"
